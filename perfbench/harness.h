// Measurement plumbing shared by the perfbench workloads: host clocks and
// rusage, the in-memory span recorder used by traced runs, work-counter
// snapshots from each simulator's MetricsRegistry, and the digest of
// virtual results.
//
// Everything here observes the simulator from outside: spans wrap the
// benchmark's own calls into a layer's public API, and counters are read
// from a platform's registry after its run, before the platform dies.
#pragma once

#include <sched.h>

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace mg::sim {
class Simulator;
}
namespace mg::core {
class MicroGridPlatform;
}

namespace perfbench {

/// Host wall clock and the process's own resource usage (all threads).
struct Usage {
  double wall_s = 0;
  double user_s = 0;
  double sys_s = 0;
  std::int64_t csw = 0;  // voluntary + involuntary context switches
};
Usage usageNow();
double wallNow();
double peakRssMb();

/// The calling thread's CPU affinity. Threads it creates later (every
/// simulated process is one) inherit the affinity it has at that moment.
cpu_set_t threadAffinity();
void setThreadAffinity(const cpu_set_t& set);
/// Restricts the calling thread to the CPU it is running on, or to the first
/// CPU of its mask when that CPU is not in it; returns that CPU.
int pinToCurrentCpu();

/// Runs the calling thread on `set` for the scope's lifetime.
class AffinityScope {
 public:
  explicit AffinityScope(const cpu_set_t& set) : saved_(threadAffinity()) {
    setThreadAffinity(set);
  }
  AffinityScope(const AffinityScope&) = delete;
  AffinityScope& operator=(const AffinityScope&) = delete;
  ~AffinityScope() { setThreadAffinity(saved_); }

 private:
  cpu_set_t saved_;
};

/// Deterministic work counters, keyed by the benchmark's metric names
/// (sim.events, net.packet.sent, ...).
using Counts = std::map<std::string, std::int64_t>;

/// Add the tracked registry counters of `sim` into `into`.
void addCounts(Counts& into, const mg::sim::Simulator& sim);
/// addCounts plus the routing table's built columns (net.route.columns).
void addCounts(Counts& into, mg::core::MicroGridPlatform& platform);

/// FNV-1a over the text form of virtual results.
class Digest {
 public:
  void add(std::string_view s);
  void add(double v);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};
std::string hex64(std::uint64_t v);

/// Spans around the benchmark's calls into each layer, kept in memory and
/// written out as a Chrome trace when the run ends. Disabled, span() costs
/// nothing and records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  class Scope {
   public:
    Scope(Tracer* t, std::size_t index) : t_(t), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    Tracer* t_;
    std::size_t index_;
  };

  /// Open a span named `name` (a layer prefix, then the call: "core.platform_build").
  Scope span(std::string name);
  /// Record an already-closed interval (wallNow() stamps) under the open span.
  void record(std::string name, double start_s, double end_s);
  bool enabled() const { return enabled_; }
  /// Turn recording on or off between spans (untraced passes of a traced run).
  void setRecording(bool on) { recording_ = on; }

  /// Durations in seconds of every closed span named `name`.
  std::vector<double> durations(const std::string& name) const;
  double total(const std::string& name) const;

  /// Chrome trace_event JSON (one "X" event per span, parent in args).
  std::string chromeJson() const;

 private:
  struct Span {
    std::string name;
    std::int64_t parent = -1;
    double start_s = 0;
    double end_s = -1;
  };
  bool enabled_;
  bool recording_ = true;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

double median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);

}  // namespace perfbench
