// The MicroGrid emulation platform.
//
// Assembles the paper's three mechanisms: virtualization (HostContext over
// the mapping table), global coordination (SimulationRate + VirtualTime),
// and resource simulation (per-physical-machine CPU schedulers, per-host
// memory managers, and the packet-level network running at 1/rate).
//
// The kernel clock is the *emulation wall clock* (the physical machines'
// timeline); every virtual-time observable is rescaled by the simulation
// rate, so running the emulation slower (Fig 15) leaves virtual results
// unchanged up to quantum granularity.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/platform.h"

namespace mg::core {

struct MicroGridOptions {
  /// Scheduler quantum (paper default: 10 ms Linux timeslice; Fig 11 sweeps).
  sim::SimTime quantum = 10 * sim::kMillisecond;
  /// Run the emulation N times slower than feasible (Fig 15's knob).
  double slowdown = 1.0;
  /// When positive, use exactly this simulation rate (virtual seconds per
  /// emulation second) instead of deriving one. NaN is rejected.
  double rate_override = 0;
  /// Which model backs the virtual wire (DESIGN.md §8): full packet
  /// simulation, max-min fair fluid flows, or hybrid (fluid by default,
  /// packet detail, both ways, for connections matching `netmodel_detail`).
  net::NetModelKind netmodel = net::NetModelKind::Packet;
  /// Hybrid escalation patterns (see net::DetailSelector).
  std::vector<std::string> netmodel_detail;
  /// Component-scoped flow recompute (see net::NetworkOptions::incremental).
  bool flow_incremental = true;
  std::uint64_t seed = 42;
};

class MicroGridPlatform : public Platform {
 public:
  explicit MicroGridPlatform(const VirtualGridConfig& cfg, MicroGridOptions opts = {});
  ~MicroGridPlatform() override;

  /// The chosen simulation rate (virtual seconds per emulation second).
  double rate() const { return vt_.rate(); }
  const vos::VirtualTime& virtualTime() const { return vt_; }
  /// Emulation wall-clock seconds consumed so far (the cost side of the
  /// Fig 15 trade-off).
  double emulationNow() const { return sim::toSeconds(sim_.now()); }

  /// Register the platform's full time-resolved probe set (DESIGN.md §10)
  /// on a sampler: kernel rates (sim.*), the network's per-link and
  /// throughput series (net.*), and every physical machine's CPU scheduler
  /// (vos.cpu.util.<machine>, vos.runq.<machine>). Call after construction,
  /// before sampler.start().
  void registerTelemetry(sim::TelemetrySampler& sampler);

  /// Fold the platform's state into `w` (DESIGN.md §11): the kernel's
  /// clock, heap and process table, the network with its queues, RNG stream
  /// and flows, every physical machine's CPU scheduler, and every virtual
  /// host in mapper order (aliveness, CPU factor, memory, TCP endpoints).
  void saveState(obs::StateWriter& w) const;

  /// TCP connections still open (neither fully closed nor reset), summed
  /// over every live host stack. A crashed host's stack died with its
  /// connections (they were reset), so it contributes zero — this is the
  /// "all sockets closed or reset" invariant surface.
  std::size_t openTcpConnections();

  // --- fault-injection surface (src/fault drives these) ---

  /// Crash a virtual host: RST every TCP peer (the dying kernel's last
  /// gasp), kill every process on the host (each unwinds, releasing memory
  /// and scheduler slots in O(active processes)), then blackhole the node.
  /// Idempotent.
  void crashHost(const std::string& hostname);

  /// Bring a crashed host back with a cold stack: no processes, no
  /// listeners, no directory presence — those are the launcher's job.
  /// Idempotent.
  void restartHost(const std::string& hostname);

  bool hostAlive(const std::string& hostname);

  /// CPU brownout: scale the host's CPU allocation by `factor` in (0, 1].
  /// 1.0 restores full speed.
  void setHostCpuFactor(const std::string& hostname, double factor);

 protected:
  /// The MicroGrid CPU rule: the process joins its physical machine's
  /// quantum scheduler on first use, and the host's CPU fraction is
  /// re-divided among its CPU-using processes as they come and go.
  void computeFor(CpuSlot& slot, double ops) override;
  void releaseCpu(CpuSlot& slot) override;

 private:
  void refraction(Host& rt);

  MicroGridOptions opts_;
  std::map<std::string, std::unique_ptr<vos::CpuScheduler>> schedulers_;
};

}  // namespace mg::core
