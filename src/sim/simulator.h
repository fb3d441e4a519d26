// The discrete-event simulation kernel.
//
// A Simulator owns one time-ordered event queue and a set of cooperative
// Processes. Either the kernel (dispatching events) or one process (between
// two of its blocking calls) runs at a time, so simulation semantics are
// deterministic: the same configuration and seed give bit-identical runs.
// Each process is a stackful user-space context switched on the kernel's
// own OS thread (simulator.cpp): a handoff is a register switch, not a
// thread wake. Stacks are 1 MiB of lazily committed memory with a guard page
// below, pooled per Simulator; an overflow aborts with the process's name.
//
// Events live in a slab arena: fixed records recycled through a free list,
// ordered by a 4-ary min-heap of slot indices. cancel() removes the record
// from the heap in place (O(log n)) and frees the slot immediately, so the
// cancel-heavy suspendFor/TCP-RTO workloads leave no tombstones behind and
// the arena's footprint tracks the number of *pending* events. Event bodies
// are sim::EventFn small-buffer callables; the hot paths capture at most 48
// bytes and never touch the heap (`sim.kernel.eventfn_heap_fallbacks`
// counts the exceptions).
//
// Process code blocks via Simulator::delay / suspend / suspendFor (usually
// indirectly, through Channel, Condition, or the vos socket layer). At
// shutdown every unfinished process is unwound with a ProcessKilled
// exception; process code must let it propagate (never swallow with
// catch(...)) and must not issue new blocking calls while unwinding.
//
// The simulator carries the run-wide metrics registry, span recorder and
// progress pulse. It holds no timeline: time-resolved series belong to a
// sim::TelemetrySampler (sim/sampler.h), so a run that never samples pays
// nothing for them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/state_capture.h"
#include "obs/span.h"
#include "sim/event_fn.h"
#include "sim/time.h"
#include "util/error.h"

namespace mg::sim {

class Simulator;

/// Thrown inside a process when the simulator tears it down. Not derived
/// from mg::Error so that generic error handling does not accidentally
/// swallow it.
struct ProcessKilled {};

namespace detail {

/// The event storage: slab arena + 4-ary min-heap + clock.
struct EventQueue {
  // Per-slot cancellation bookkeeping, kept apart from the fat EventFn slab
  // so the heap_pos writes done while sifting stay in a dense 8-byte-stride
  // table. `heap_pos` is the slot's index in heap while pending, -1 once
  // executed/cancelled/free. `generation` tags the slot so stale EventIds
  // miss after reuse.
  struct SlotMeta {
    std::uint32_t generation = 1;
    std::int32_t heap_pos = -1;
  };

  // A 24-byte heap entry carrying the full ordering key: (time, seq) is a
  // total order because seq is unique.
  struct HeapEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static bool entryBefore(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;  // FIFO among equal times
  }

  SimTime now = 0;
  std::uint64_t next_seq = 0;
  std::vector<EventFn> slab;
  std::vector<SlotMeta> meta;
  std::vector<std::uint64_t> slot_span;  // obs::SpanId per slot
  std::vector<std::uint32_t> free_slots;
  std::vector<HeapEntry> heap;

  void placeEntry(std::size_t pos, const HeapEntry& e);
  void siftUp(std::size_t pos, const HeapEntry& e);
  void siftDown(std::size_t pos, const HeapEntry& e);
  void heapPush(const HeapEntry& e);
  void heapRemoveAt(std::int32_t pos);
  std::uint32_t allocSlot();
  void freeSlot(std::uint32_t slot);
};

/// A process's execution context (simulator.cpp).
struct ProcessContext;

/// Process stacks: fixed-size mmap regions, each with a PROT_NONE guard
/// page below it, recycled through a free list. Stacks are never touched
/// here, so resident memory counts only the pages processes actually use.
class StackPool {
 public:
  StackPool() = default;
  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;
  ~StackPool();

  /// Lowest usable address of a stack of kProcessStackBytes.
  void* acquire();
  void release(void* stack);
  /// Stacks mapped so far (live plus pooled).
  std::size_t mapped() const { return mapped_; }

 private:
  std::vector<void*> free_;
  std::size_t mapped_ = 0;
};

}  // namespace detail

/// Usable stack of every simulated process. There is deliberately no knob:
/// an overflow hits the guard page and aborts naming the process.
inline constexpr std::size_t kProcessStackBytes = std::size_t{1} << 20;

/// A cooperative simulated process. Created via Simulator::spawn.
///
/// Lifetime: the Simulator reaps finished Process objects at safe points in
/// run()/runUntil(), so a stored `Process*` is only valid while the process
/// is unfinished (a blocked or running process is never reaped). Long-lived
/// bookkeeping that may outlast a process should store its id() and use
/// Simulator::processFinished / killProcessById instead.
class Process {
 public:
  ~Process();
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  const std::string& name() const { return name_; }
  std::uint64_t id() const { return id_; }
  bool finished() const { return finished_; }

 private:
  friend class Simulator;
  Process(Simulator& sim, std::uint64_t id, std::string name, std::function<void()> body);

  /// First function on the process's own stack; never returns.
  [[noreturn]] static void contextMain(Process* self) noexcept;
  /// Resumer side (the kernel, or a process killing another): switch to the
  /// process; returns when it yields or finishes.
  void resumeFromKernel();
  /// Process side: switch back to the resumer; returns when resumed.
  void yieldToKernel();

  Simulator& sim_;
  std::uint64_t id_;
  std::string name_;
  std::function<void()> body_;

  // Execution context: the stack (mapped at the first slice), the saved
  // stack pointers of the process and of its resumer, and the process's own
  // exception-handling state (simulator.cpp).
  std::unique_ptr<detail::ProcessContext> ctx_;

  bool finished_ = false;
  bool kill_ = false;
  // True while the process is suspended waiting for wake()/timeout.
  bool suspended_ = false;
  // True when a resume event for this process is already queued.
  bool wake_pending_ = false;
  // Set by the timeout path so suspendFor can report expiry.
  bool timed_out_ = false;
  // Monotonic counter distinguishing separate suspend episodes, so a stale
  // timeout event cannot wake a later suspend.
  std::uint64_t wait_epoch_ = 0;
  // Pending suspendFor timeout event, cancelled in place on wake so expired
  // timers neither linger in the queue nor stretch run()'s end time.
  std::uint64_t timeout_event_ = 0;
  // Pending resume event (spawn/delay/wake), at most one thanks to
  // wake_pending_. Cancelled when the process finishes: the event captures
  // this Process, which reaping is about to free.
  std::uint64_t resume_event_ = 0;
  // Ambient span context (obs::SpanId), saved when the process yields and
  // restored around the next slice, so a process resumes inside the span it
  // blocked in — even when the resume came from a foreign context's wake().
  std::uint64_t span_ctx_ = 0;
};

/// Opaque handle for a scheduled event: (generation << 32) | slot. The
/// generation tag detects slot reuse, so cancelling a stale handle is a safe
/// no-op. Never 0 (callers use 0 as "no event").
using EventId = std::uint64_t;

/// The event-driven simulation core.
class Simulator {
 public:
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  SimTime now() const { return queue_.now; }

  /// Schedule `fn` at absolute time `t` (>= now). Events at equal times run
  /// in scheduling order.
  EventId scheduleAt(SimTime t, EventFn fn);

  /// Schedule `fn` after `delay` (>= 0).
  EventId scheduleAfter(SimTime delay, EventFn fn);

  /// Cancel a pending event: the record leaves the heap and its arena slot
  /// is recycled immediately (the capture's destructors run here).
  /// Cancelling an already-run or unknown event is a no-op (callers often
  /// race benignly with their own timeouts).
  void cancel(EventId id);

  /// Create a process whose body starts at the current time.
  Process& spawn(std::string name, std::function<void()> body);

  /// Run until the event queue is empty. Returns the final time.
  SimTime run();

  /// Run events with time <= t. When events remain past t, now moves to t;
  /// when the queue drains first, now stays at the last dispatched event,
  /// as after run().
  void runUntil(SimTime t);

  /// Kill all unfinished processes, unwinding each one's stack. Not implied
  /// by run() completion — daemons stay blocked until shutdown() or
  /// destruction.
  void shutdown();

  /// Kill one process: it unwinds synchronously with ProcessKilled, exactly
  /// as in shutdown(), and this call returns once the unwind completes. The
  /// fault layer uses this for host crashes. A process must not kill itself;
  /// killing a finished process is a no-op.
  void killProcess(Process& p);

  /// killProcess by id: a safe no-op when the process has already finished
  /// (and possibly been reaped). Preferred by bookkeeping that stores ids
  /// across process lifetimes (host crash lists, vmpi daemon tracking).
  void killProcessById(std::uint64_t id);

  /// True when the process has finished (or never existed). Safe for any id,
  /// including reaped ones — unlike dereferencing a stale Process*.
  bool processFinished(std::uint64_t id) const;

  // --- process-context API (callable only from inside a process) ---

  /// Block the calling process for `d` simulated time.
  void delay(SimTime d);

  /// Block the calling process until another entity calls wake() on it.
  void suspend();

  /// Block until wake() or until `timeout` elapses. True if woken, false on
  /// timeout.
  bool suspendFor(SimTime timeout);

  /// The currently running process. Throws UsageError from kernel context.
  Process& currentProcess();

  /// True when called from inside a process.
  bool inProcessContext() const { return current_ != nullptr; }

  // --- any-context API ---

  /// Wake a suspended process (schedules its resume at the current time).
  /// No-op if the process is not suspended or already has a wake pending;
  /// see Condition for the standard mesa-style recheck idiom.
  void wake(Process& p);

  /// Number of processes that have not finished. O(1).
  int liveProcessCount() const { return live_process_count_; }

  /// Names of processes currently suspended; useful for diagnosing deadlock
  /// when run() returns while work was expected.
  std::vector<std::string> suspendedProcessNames() const;

  /// Total events executed (kernel throughput metric for bench_kernel_perf).
  std::uint64_t eventsExecuted() const {
    return static_cast<std::uint64_t>(events_executed_.value());
  }

  /// Events currently scheduled (pending, not cancelled). Cancellation
  /// shrinks this immediately — there are no tombstones.
  std::size_t pendingEventCount() const { return queue_.heap.size(); }

  /// Slots in the event arena: the high-water mark of *concurrently*
  /// pending events. Bounded for schedule+cancel churn because cancelled and
  /// executed slots are recycled through a free list.
  std::size_t eventArenaSlots() const { return queue_.slab.size(); }

  /// Process stacks mapped so far: at most the peak number of processes
  /// that were alive and had started running at once, since finished
  /// processes return their stacks for reuse.
  std::size_t processStacksMapped() const { return stacks_.mapped(); }

  /// Fold the kernel's observable state into a canonical digest (DESIGN.md
  /// §11): the clock and sequence counter, every pending event's (time, seq)
  /// ordering key (sorted, so the fold is independent of the heap's internal
  /// layout), and the live process table sorted by id. Strictly read-only;
  /// call between events.
  void saveState(obs::StateWriter& w) const;

  /// The run-wide metrics registry: every layer attached to this simulator
  /// registers its counters here (names: `layer.component.counter`).
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// The run-wide causal span recorder (disabled by default; enable with
  /// spans().setEnabled(true) before the run). The kernel propagates the
  /// current-span context through event dispatch, spawn inheritance, and
  /// per-process save/restore around slices.
  obs::SpanRecorder& spans() { return spans_; }
  const obs::SpanRecorder& spans() const { return spans_; }

  /// The live-monitor publication board (mgrun --progress). Enabled while
  /// an obs::ProgressMonitor is started on it; otherwise it costs one
  /// pointer load per dispatched event.
  obs::RunPulse& pulse() { return pulse_; }
  const obs::RunPulse& pulse() const { return pulse_; }

 private:
  friend class Process;

  /// Pop the due root event, free its slot, and run it with the scheduler's
  /// span context restored.
  void dispatchTop();
  void runProcessSlice(Process& p);
  void scheduleResume(Process& p);
  void reapFinishedProcesses();
  /// Compact processes_ if enough finished ones piled up. Safe points only
  /// (between events).
  void reapIfNeeded();
  SimTime runLoop(SimTime limit, bool bounded);

  // Declared before the counter handles below, which point into it.
  obs::MetricsRegistry metrics_;
  obs::SpanRecorder spans_{&metrics_};
  obs::RunPulse pulse_;

  std::uint64_t next_process_id_ = 1;
  bool shutting_down_ = false;
  // True when this simulator installed the util::log sim-time source.
  bool owns_log_time_source_ = false;

  obs::Counter& events_executed_ = metrics_.counter("sim.kernel.events_executed");
  obs::Counter& eventfn_heap_fallbacks_ = metrics_.counter("sim.kernel.eventfn_heap_fallbacks");
  obs::Counter& processes_spawned_ = metrics_.counter("sim.process.spawned");
  obs::Counter& process_wakes_ = metrics_.counter("sim.process.wakes");
  obs::Counter& process_kills_ = metrics_.counter("sim.process.kills");

  detail::EventQueue queue_;

  // Declared before processes_ so it outlives every Process.
  detail::StackPool stacks_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::unordered_map<std::uint64_t, Process*> live_processes_;  // by id
  int live_process_count_ = 0;
  // Finished-but-unreaped count; when it crosses the reap threshold the next
  // safe point compacts processes_.
  int finished_unreaped_ = 0;
  Process* current_ = nullptr;
};

}  // namespace mg::sim
