// The local MicroGrid CPU scheduler (paper §2.4.1, Fig 4).
//
// One scheduler per physical machine. Each local MicroGrid task (a process
// on a virtual host) is assigned a CPU fraction; the scheduler hands out
// round-robin quanta, running a task only while
//
//     myUsedTime <= cpu_Fraction * presentTime        (Fig 4's loop guard)
//
// so each task's long-run CPU rate converges to its fraction. The quantum
// length (10 ms by default, "as supported by the Linux timesharing
// scheduler") is configurable — Fig 11 sweeps it.
//
// Competition from other processes on the physical machine (paper §3.2.2) is
// modeled by a CompetitionProfile: a cap on the total CPU the scheduler can
// obtain, and jitter on delivered quantum lengths (Fig 7 measures exactly
// this distribution).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "util/rng.h"

namespace mg::sim {
class TelemetrySampler;
}

namespace mg::vos {

/// Background load on the physical machine hosting the scheduler.
struct CompetitionProfile {
  /// Fraction of the physical CPU the MicroGrid scheduler can obtain in
  /// total (OS + competitor overhead takes the rest).
  double capacity_cap = 0.95;
  /// Delivered quantum length is nominal * N(mean, dev), truncated positive.
  double quantum_jitter_mean = 1.0;
  double quantum_jitter_dev = 0.002;

  /// Scheduler alone on the machine (paper: dev 0.002).
  static CompetitionProfile none() { return {0.95, 1.0, 0.002}; }
  /// A floating-point-division hog runs in parallel (paper: mean 1.01,
  /// dev 0.015; delivered fraction plateaus near 45%).
  static CompetitionProfile cpuBound() { return {0.47, 1.01, 0.015}; }
  /// A 1MB-buffer-flushing IO hog runs in parallel (paper: mean 0.978,
  /// dev 0.027).
  static CompetitionProfile ioBound() { return {0.52, 0.978, 0.027}; }
};

class CpuScheduler {
 public:
  using TaskId = std::int32_t;

  /// `physical_ops` is the physical machine's speed in operations/second.
  CpuScheduler(sim::Simulator& sim, double physical_ops,
               sim::SimTime quantum = 10 * sim::kMillisecond,
               CompetitionProfile competition = CompetitionProfile::none(),
               std::uint64_t seed = 0x5EED);
  CpuScheduler(const CpuScheduler&) = delete;
  CpuScheduler& operator=(const CpuScheduler&) = delete;

  /// Register a task with a CPU fraction in (0, 1]. `track` is the span
  /// track (virtual hostname) quanta are attributed to when tracing is on;
  /// empty falls back to the task name.
  TaskId addTask(std::string name, double fraction, std::string track = {});

  /// Unregister in O(1). Pending demand (a process killed mid-compute) is
  /// dropped: the slot goes dead, in-flight quantum events skip it, and no
  /// CPU credit is charged to or leaked from the dead task.
  void removeTask(TaskId id);

  /// Adjust a task's fraction (used when processes join/leave a virtual
  /// host and the host's allocation is re-divided).
  void setFraction(TaskId id, double fraction);

  /// Blocking (process context): consume `ops` operations' worth of
  /// physical CPU, scheduled in quanta. One outstanding request per task.
  void compute(TaskId id, double ops);

  /// Blocking: consume the given amount of physical CPU seconds.
  void computeSeconds(TaskId id, double cpu_seconds);

  sim::SimTime quantum() const { return quantum_; }
  double usedCpuSeconds(TaskId id) const;

  /// Normalized delivered quantum lengths (Fig 7's samples). Only full
  /// quanta are logged; demand-truncated final slices are excluded.
  const std::vector<double>& quantaLog() const { return quanta_log_; }

  /// Time-resolved probes (DESIGN.md §10): vos.cpu.util.<label> — fraction
  /// of wall time this scheduler's physical CPU spent occupied by quanta —
  /// and vos.runq.<label>, live tasks with pending demand.
  void registerTelemetry(sim::TelemetrySampler& sampler, const std::string& label);

  /// Fold the scheduler's dynamic state into `w` (DESIGN.md §11): the task
  /// table in slot order (name, fraction, consumed CPU, pending demand,
  /// liveness), the round-robin cursor, the jitter RNG stream, and the
  /// busy-time accrual. Read-only.
  void saveState(obs::StateWriter& w) const;

 private:
  struct Task {
    std::string name;
    std::string track;            // span track (hostname) for quantum spans
    double fraction = 0;
    double used_cpu = 0;          // seconds of CPU consumed
    sim::SimTime start_time = 0;  // when the task registered
    double demand = 0;            // pending cpu-seconds
    sim::Process* waiter = nullptr;
    // Requester's span context, captured at computeSeconds: granted quanta
    // parent to the compute call that demanded them.
    obs::SpanId span = 0;
    bool live = false;
  };

  Task& liveTask(TaskId id);
  void scheduleNext();
  /// Earliest time the task is eligible under the Fig 4 guard.
  sim::SimTime eligibleAt(const Task& t) const;

  sim::Simulator& sim_;
  double physical_ops_;
  sim::SimTime quantum_;
  CompetitionProfile competition_;
  // vos.sched.* instruments (aggregated across schedulers on one simulator).
  obs::Counter& c_quanta_;
  obs::Counter& c_tasks_added_;
  obs::Gauge& g_cpu_seconds_;
  util::Histogram& h_quantum_norm_;
  util::Rng rng_;

  // deque: addTask while other tasks hold references across suspension.
  std::deque<Task> tasks_;
  std::size_t rr_next_ = 0;  // round-robin cursor
  bool running_ = false;     // a quantum is in progress
  sim::EventId wake_event_ = 0;  // pending eligibility wake
  std::vector<double> quanta_log_;
  // Busy-time accrual for the vos.cpu.util probe: closed quantum spans sum
  // into busy_wall_s_ at the slice boundary; the open slice is reconstructed
  // from busy_start_/busy_until_ against the sampler's clock.
  double busy_wall_s_ = 0;
  sim::SimTime busy_start_ = 0;
  sim::SimTime busy_until_ = 0;
};

}  // namespace mg::vos
