// Mini NAS Parallel Benchmarks over vmpi.
//
// The paper validates the MicroGrid with NPB 2.3 (EP, BT, LU, MG, IS).
// These kernels reproduce each benchmark's computation/communication
// *pattern* with real (scaled-down) numerics:
//
//   EP — embarrassingly parallel Gaussian-pair generation (NPB LCG,
//        jump-ahead per rank), one allreduce at the end;
//   IS — bucket sort with an all-to-all key exchange per iteration;
//   MG — V-cycle multigrid on a 3D slab decomposition, halo exchanges at
//        every smoothing step;
//   LU — SSOR with pipelined wavefront sweeps (plane-by-plane pipeline);
//   BT — ADI: local x/y line solves plus pipelined z sweeps.
//
// Absolute times come from the class cost model (npb/cost_model.h): each
// kernel executes a reduced problem but *charges* the full class's
// operations and transmits class-sized messages via vmpi's wire_bytes
// override. DESIGN.md §2 records this substitution.
#pragma once

#include <string>
#include <vector>

#include "grid/registry.h"
#include "vmpi/comm.h"
#include "vos/context.h"

namespace mg::npb {

enum class NpbClass { S, A };
NpbClass classFromString(const std::string& s);
std::string className(NpbClass c);

enum class Benchmark { EP, IS, MG, LU, BT };
Benchmark benchmarkFromString(const std::string& s);
std::string benchmarkName(Benchmark b);

/// One rank's outcome.
struct KernelResult {
  std::string benchmark;
  std::string npb_class;
  int rank = 0;
  int nprocs = 0;
  double seconds = 0;    // virtual wall time of the timed section
  bool verified = false;
  double checksum = 0;   // deterministic result signature
  std::int64_t bytes_sent = 0;
  std::int64_t messages_sent = 0;
};

/// Run one benchmark on an initialized communicator (all ranks call this).
KernelResult runBenchmark(Benchmark b, vmpi::Comm& comm, vos::HostContext& ctx, NpbClass cls);

KernelResult runEp(vmpi::Comm& comm, vos::HostContext& ctx, NpbClass cls);
KernelResult runIs(vmpi::Comm& comm, vos::HostContext& ctx, NpbClass cls);
KernelResult runMg(vmpi::Comm& comm, vos::HostContext& ctx, NpbClass cls);
KernelResult runLu(vmpi::Comm& comm, vos::HostContext& ctx, NpbClass cls);
KernelResult runBt(vmpi::Comm& comm, vos::HostContext& ctx, NpbClass cls);

/// Collects per-rank results from jobs launched through GRAM.
class ResultSink {
 public:
  void record(KernelResult r) { results_.push_back(std::move(r)); }
  const std::vector<KernelResult>& results() const { return results_; }
  void clear() { results_.clear(); }

  /// Longest per-rank time of the last run (the reported "execution time").
  double maxSeconds() const;
  bool allVerified() const;

 private:
  std::vector<KernelResult> results_;
};

/// Register executables "npb.ep" .. "npb.bt" (argument: class letter).
/// The sink must outlive the registry's use.
void registerNpb(grid::ExecutableRegistry& registry, ResultSink& sink);

/// Autopilot instrumentation (paper §3.6): the name of benchmark `b`'s
/// progress sensor, the metrics gauge "npb.sensor.<BENCH>.progress". A
/// monitor asks for the sensor by registering that gauge on the platform's
/// simulator and setting it to NaN ("no value yet"); rank 0 of each later
/// kernel run then writes a periodic function of its iteration counter to
/// it, for a TelemetrySampler level probe to record. Unregistered, nothing
/// is published.
std::string progressSensor(Benchmark b);

}  // namespace mg::npb
