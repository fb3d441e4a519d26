// Wall-clock live run monitoring (mgrun --progress; DESIGN.md §10).
//
// The simulation kernel is single-minded: once run() starts, its thread (on
// which every simulated process also runs) does nothing else until the
// queues drain. RunPulse is the one-way window out — a lock-free board of
// relaxed atomics the kernel publishes to (per-event clock + pending count)
// and a ProgressMonitor thread reads from, together with the kernel's
// sim.kernel.events_executed counter. The monitor
// owns all formatting and timing; the kernel's cost when --progress is off
// is a single relaxed bool load per event, and when on, two relaxed stores.
//
// Everything the monitor prints goes to its sink (stderr by default) and is
// wall-clock flavored, hence nondeterministic — stdout and every recorded
// observable stream stay byte-identical with the monitor on or off (CI-
// enforced). Heartbeats show sim time, sim-seconds per wall-second,
// events/sec, pending events, and an ETA when a progress-fraction callback
// is provided. A stall watchdog fires when the events counter stops moving
// for `stall_s` wall seconds and dumps the board — the
// tell-a-human-where-it-hangs view for deadlocked or runaway scenarios.
//
// Thread-safety contract: the fraction callback runs on the monitor thread
// and must only read atomics (registry counters/gauges qualify).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>

namespace mg::obs {

class Counter;

/// The kernel-side publication board. Owned by sim::Simulator; disabled
/// (and costing one relaxed load per event) unless enable(true) is called.
class RunPulse {
 public:
  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// One event dispatched; the clock is now `now_ns` with `pending` events
  /// left in the queue. Kernel hot path — relaxed stores.
  void beat(std::int64_t now_ns, std::int64_t pending) {
    now_.store(now_ns, std::memory_order_relaxed);
    pending_.store(pending, std::memory_order_relaxed);
  }

  std::int64_t simNow() const { return now_.load(std::memory_order_relaxed); }
  std::int64_t pending() const { return pending_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::int64_t> now_{0};
  std::atomic<std::int64_t> pending_{0};
};

struct ProgressOptions {
  /// Wall seconds between heartbeats.
  double interval_s = 2.0;
  /// Wall seconds without a dispatched event before the stall watchdog
  /// dumps state.
  double stall_s = 30.0;
  /// Output stream; nullptr means std::cerr. Never stdout: recorded streams
  /// must stay byte-identical with the monitor on or off.
  std::ostream* sink = nullptr;
  /// Fraction of the run complete in [0, 1] for ETA lines; return a negative
  /// value for "unknown". Runs on the monitor thread: read atomics only.
  std::function<double()> fraction;
  std::string label = "progress";
};

/// The watcher thread. start() spawns it, stop() (or destruction) joins it;
/// between the two it prints a heartbeat every interval and a stall dump
/// when `events` (the kernel's sim.kernel.events_executed) stops moving.
class ProgressMonitor {
 public:
  ProgressMonitor(const RunPulse& pulse, const Counter& events, ProgressOptions opts = {});
  ~ProgressMonitor();
  ProgressMonitor(const ProgressMonitor&) = delete;
  ProgressMonitor& operator=(const ProgressMonitor&) = delete;

  void start();
  void stop();

  std::int64_t heartbeats() const { return heartbeats_.load(std::memory_order_relaxed); }
  std::int64_t stallDumps() const { return stall_dumps_.load(std::memory_order_relaxed); }

 private:
  void loop();
  void heartbeat(std::ostream& out, double wall_s);
  void stallDump(std::ostream& out, double quiet_s);

  const RunPulse& pulse_;
  const Counter& events_;
  ProgressOptions opts_;
  std::thread thread_;
  std::mutex m_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  bool running_ = false;
  std::atomic<std::int64_t> heartbeats_{0};
  std::atomic<std::int64_t> stall_dumps_{0};
};

}  // namespace mg::obs
