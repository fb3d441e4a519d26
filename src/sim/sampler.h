// Event-driven periodic sampling of gauges and counters-as-rates into the
// sampler's own TimeSeriesRecorder (DESIGN.md §10).
//
// The sampler schedules itself as a recurring kernel event at a fixed
// interval, reads every registered probe, and records one sample per probe
// per tick into its timeline(), whose buckets are one interval wide. The
// interval is set once, at construction. Each probe resolves its series to
// an index when it is registered, so a tick does no name lookup; probes that
// share a series name feed one series.
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
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/timeline.h"
#include "sim/simulator.h"

namespace mg::sim {

class TelemetrySampler {
 public:
  /// Probes registered past this cap are ignored (droppedProbes() counts
  /// them), so per-link registration on huge topologies stays bounded. It is
  /// also the bound on series.
  static constexpr std::size_t kMaxProbes = 4096;

  /// Ticks every `interval` kernel ns (> 0). The Simulator must outlive the
  /// sampler.
  TelemetrySampler(Simulator& sim, SimTime interval);

  /// Sample the probe's value at time t. Recorded as-is (a level); a NaN
  /// reading means "no value yet" and records no sample, so a series can
  /// start at its source's first write (Autopilot sensors, Fig 17).
  void addLevel(std::string_view series, std::function<double(std::int64_t)> read);

  /// `cumulative` returns a non-decreasing total (e.g. busy-seconds, bytes);
  /// the recorded sample is its per-second rate over the last interval —
  /// utilization when the total is busy-seconds. The baseline is taken at
  /// start(), so the first tick covers [start, first tick].
  void addRate(std::string_view series, std::function<double(std::int64_t)> cumulative);

  /// Rate of a registry counter (events/sec, packets/sec, ...).
  void addCounterRate(std::string_view series, const obs::Counter& counter);

  /// Kernel health probes: sim.events_per_s (rate of
  /// sim.kernel.events_executed), sim.pending_events, sim.arena_slots — the
  /// "is the simulator itself healthy" view next to the per-resource probes
  /// the net/vos/econ layers register.
  void registerKernelProbes();

  /// Take the t=now baseline sample and schedule the recurring tick. Call
  /// once, after probes are registered and before the run.
  void start();

  /// Take a final closing sample at the current time unless one already landed
  /// there. Call after the run returns.
  void finish();

  /// The recorded series.
  const obs::TimeSeriesRecorder& timeline() const { return timeline_; }
  std::int64_t ticks() const { return ticks_; }
  std::int64_t droppedProbes() const { return dropped_probes_; }

 private:
  struct Probe {
    std::size_t series = 0;  // index into timeline_
    std::function<double(std::int64_t)> read;
    bool rate = false;
    double prev = 0;  // cumulative value at the previous tick (rate probes)
  };

  void addProbe(std::string_view series, std::function<double(std::int64_t)> read, bool rate);
  /// Read every probe at time t and record the samples.
  void collect(std::int64_t t);
  /// Schedule the next tick if the run still has events to execute.
  void scheduleNext(std::int64_t t);

  Simulator& sim_;
  SimTime interval_;
  obs::TimeSeriesRecorder timeline_;
  std::vector<Probe> probes_;
  bool started_ = false;
  std::int64_t last_tick_ = -1;  // time of the previous collect, -1 before start
  std::int64_t ticks_ = 0;
  std::int64_t dropped_probes_ = 0;
};

}  // namespace mg::sim
