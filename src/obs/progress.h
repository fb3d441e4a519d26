// Wall-clock live run monitoring (mgrun --progress; DESIGN.md §10).
//
// Everything runs on the kernel's thread. RunPulse is the board the kernel
// publishes to after each dispatched event (the clock and the pending
// count); it is enabled while a ProgressMonitor is started on it, and
// costs one pointer load per event when it is not. A started monitor arms
// the process's interval timer (ITIMER_REAL). Each SIGALRM marks a
// heartbeat due, and the kernel's next beat() formats the line. The
// handler also keeps the stall watchdog: when the kernel's
// sim.kernel.events_executed counter stops moving for `stall_s` wall
// seconds, it dumps the board with write(2) -- the one report that must
// not wait for the next event, since a run stuck inside one event never
// beats again.
//
// Everything the monitor prints goes to its fd (stderr by default) and is
// wall-clock flavored, hence nondeterministic -- stdout and every recorded
// observable stream stay byte-identical with the monitor on or off.
// Heartbeats show sim time, sim-seconds per wall-second, events/sec,
// pending events, and an ETA when a progress-fraction callback is provided.
//
// The timer and SIGALRM belong to the OS process, so one monitor runs per
// process at a time.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

namespace mg::obs {

class Counter;
class ProgressMonitor;

/// Heartbeat interval bounds, wall seconds. Below 1 ms the timer would
/// round towards zero (which disarms it); above a day it is no heartbeat.
inline constexpr double kMinProgressInterval = 0.001;
inline constexpr double kMaxProgressInterval = 86400;

/// The kernel-side publication board, owned by sim::Simulator. The clock
/// and pending count are written by the kernel's thread only; they are
/// atomics so the monitor's signal handler reads them whole. `due_` is the
/// handler's heartbeat mark.
class RunPulse {
 public:
  bool enabled() const { return monitor_ != nullptr; }

  /// One event dispatched; the clock is now `now_ns` with `pending` events
  /// left in the queue. Kernel hot path: two stores and one load, plus a
  /// heartbeat when the monitor's timer marked one due.
  void beat(std::int64_t now_ns, std::int64_t pending) {
    now_.store(now_ns, std::memory_order_relaxed);
    pending_.store(pending, std::memory_order_relaxed);
    if (due_.load(std::memory_order_relaxed)) heartbeatDue();
  }

  std::int64_t simNow() const { return now_.load(std::memory_order_relaxed); }
  std::int64_t pending() const { return pending_.load(std::memory_order_relaxed); }

 private:
  friend class ProgressMonitor;
  void heartbeatDue();

  ProgressMonitor* monitor_ = nullptr;
  std::atomic<bool> due_{false};
  std::atomic<std::int64_t> now_{0};
  std::atomic<std::int64_t> pending_{0};
};

struct ProgressOptions {
  /// Wall seconds between heartbeats, in [kMinProgressInterval,
  /// kMaxProgressInterval].
  double interval_s = 2.0;
  /// Wall seconds without a dispatched event before the stall watchdog
  /// dumps state.
  double stall_s = 30.0;
  /// File descriptor written with write(2); stderr by default. Never
  /// stdout: recorded streams must stay byte-identical with the monitor on
  /// or off.
  int fd = 2;
  /// Fraction of the run complete in [0, 1] for ETA lines; return a negative
  /// value for "unknown". Called on the kernel's thread between events.
  std::function<double()> fraction;
  std::string label = "progress";
};

/// start() arms the timer and enables the pulse; stop() (or destruction)
/// disarms both. In between, the kernel prints a heartbeat every interval
/// and the timer's handler a stall dump when `events` (the kernel's
/// sim.kernel.events_executed) stops moving.
class ProgressMonitor {
 public:
  ProgressMonitor(RunPulse& pulse, const Counter& events, ProgressOptions opts = {});
  ~ProgressMonitor();
  ProgressMonitor(const ProgressMonitor&) = delete;
  ProgressMonitor& operator=(const ProgressMonitor&) = delete;

  void start();
  void stop();

  std::int64_t heartbeats() const { return heartbeats_; }
  std::int64_t stallDumps() const { return stall_dumps_.load(std::memory_order_relaxed); }

 private:
  friend class RunPulse;
  static void onAlarm(int);
  /// Kernel's thread, from RunPulse::beat.
  void heartbeat();
  /// Signal handler: async-signal-safe code only.
  void tick();
  void stallDump(std::int64_t quiet_ns);

  RunPulse& pulse_;
  const Counter& events_;
  ProgressOptions opts_;
  bool running_ = false;
  std::int64_t start_ns_ = 0;
  std::int64_t heartbeats_ = 0;
  // Written only by the handler (and by start() before the timer is armed).
  std::int64_t last_events_ = 0;
  std::int64_t last_change_ns_ = 0;
  bool stall_reported_ = false;
  std::atomic<std::int64_t> stall_dumps_{0};
};

}  // namespace mg::obs
