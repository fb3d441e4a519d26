// Event-driven periodic sampling of gauges and counters-as-rates into a
// TimeSeriesRecorder (DESIGN.md §10).
//
// The sampler schedules itself as a recurring kernel event at a fixed
// interval, reads every registered probe, and records one sample per probe
// per tick into the simulator's run-wide timeline (Simulator::timeline()).
//
// Probes take the sample timestamp explicitly so resources can close open
// busy-intervals against the sampler's clock.
//
// The sampler reschedules only while other events are pending, so it never
// keeps Simulator::run() (which runs until all queues drain) alive on its
// own, and the final tick is the first one at or after the last real event.
// finish() takes one closing sample so rate probes account the tail interval.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sim/simulator.h"

namespace mg::sim {

class TelemetrySampler {
 public:
  struct Options {
    std::int64_t interval_ns = 100'000'000;  // 100 ms
  };

  /// Records into sim.timeline(). The Simulator must outlive the sampler.
  explicit TelemetrySampler(Simulator& sim) : TelemetrySampler(sim, Options{}) {}
  TelemetrySampler(Simulator& sim, Options opts);

  /// Sample the probe's value at time t. Recorded as-is (a level); a NaN
  /// reading means "no value yet" and records no sample, so a series can
  /// start at its source's first write (Autopilot sensors, Fig 17).
  void addLevel(std::string series, std::function<double(std::int64_t)> read);

  /// `cumulative` returns a non-decreasing total (e.g. busy-seconds, bytes);
  /// the recorded sample is its per-second rate over the last interval —
  /// utilization when the total is busy-seconds. The baseline is taken at
  /// start(), so the first tick covers [start, first tick].
  void addRate(std::string series, std::function<double(std::int64_t)> cumulative);

  /// Rate of a registry counter (events/sec, packets/sec, ...).
  void addCounterRate(std::string series, const obs::Counter& counter);

  /// Take the t=now baseline sample and schedule the recurring tick. Call
  /// once, after probes are registered and before the run.
  void start();

  /// Take a final closing sample at the current time unless one already landed
  /// there. Call after the run returns.
  void finish();

  std::int64_t ticks() const { return ticks_; }
  /// Probes registered past a fixed cap of 4096 are ignored and counted
  /// here, so per-link registration on huge topologies stays bounded.
  std::int64_t droppedProbes() const { return dropped_probes_; }
  std::int64_t intervalNs() const { return opts_.interval_ns; }

 private:
  struct Probe {
    std::string series;
    std::function<double(std::int64_t)> read;
    bool rate = false;
    double prev = 0;  // cumulative value at the previous tick (rate probes)
  };

  void addProbe(Probe p);
  /// Read every probe at time t and record the samples.
  void collect(std::int64_t t);
  /// Schedule the next tick if the run still has events to execute.
  void scheduleNext(std::int64_t t);

  Simulator& sim_;
  Options opts_;
  std::vector<Probe> probes_;
  bool started_ = false;
  std::int64_t last_tick_ = -1;  // time of the previous collect, -1 before start
  std::int64_t ticks_ = 0;
  std::int64_t dropped_probes_ = 0;
};

/// Kernel health probes: sim.events_per_s (rate of
/// sim.kernel.events_executed), sim.pending_events, sim.arena_slots — the
/// "is the simulator itself healthy" view next to the per-resource probes
/// the net/vos/econ layers register.
void registerKernelProbes(TelemetrySampler& sampler, Simulator& sim);

}  // namespace mg::sim
