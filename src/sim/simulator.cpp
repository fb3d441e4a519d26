#include "sim/simulator.h"

#include <algorithm>
#include <limits>
#include <semaphore>
#include <thread>

#include "util/log.h"

namespace mg::sim {

// ---------------------------------------------------------------------------
// Process: one OS thread, strictly alternating with the kernel thread.
//
// The handoff is a pair of binary semaphores: releasing the peer's semaphore
// is a single futex wake of exactly one waiter, with no mutex round-trip and
// no broadcast. Strict alternation (exactly one side runs at a time) keeps
// each semaphore's count in {0, 1} by construction.
// ---------------------------------------------------------------------------

struct Process::Impl {
  std::binary_semaphore run{0};   // kernel -> process: you may run
  std::binary_semaphore idle{0};  // process -> kernel: I have yielded
  std::thread thread;
};

Process::Process(Simulator& sim, std::uint64_t id, std::string name, std::function<void()> body)
    : sim_(sim), id_(id), name_(std::move(name)), body_(std::move(body)), impl_(std::make_unique<Impl>()) {
  impl_->thread = std::thread([this] { threadMain(); });
}

Process::~Process() {
  if (impl_->thread.joinable()) impl_->thread.join();
}

void Process::threadMain() {
  // Wait for the first resume before running the body.
  impl_->run.acquire();
  if (!kill_) {
    try {
      body_();
    } catch (const ProcessKilled&) {
      // Normal teardown path.
    } catch (const std::exception& e) {
      MG_LOG_ERROR("sim") << "process '" << name_ << "' died with exception: " << e.what();
    }
  }
  finished_ = true;
  impl_->idle.release();
}

void Process::resumeFromKernel() {
  impl_->run.release();
  impl_->idle.acquire();
  if (finished_ && impl_->thread.joinable()) impl_->thread.join();
}

void Process::yieldToKernel() {
  impl_->idle.release();
  impl_->run.acquire();
  if (kill_) throw ProcessKilled{};
}

// ---------------------------------------------------------------------------
// EventQueue: slab arena + 4-ary min-heap (see the header comment).
// ---------------------------------------------------------------------------

namespace detail {

void EventQueue::placeEntry(std::size_t pos, const HeapEntry& e) {
  heap[pos] = e;
  meta[e.slot].heap_pos = static_cast<std::int32_t>(pos);
}

void EventQueue::siftUp(std::size_t pos, const HeapEntry& e) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!entryBefore(e, heap[parent])) break;
    placeEntry(pos, heap[parent]);
    pos = parent;
  }
  placeEntry(pos, e);
}

void EventQueue::siftDown(std::size_t pos, const HeapEntry& e) {
  const std::size_t n = heap.size();
  for (;;) {
    const std::size_t first = 4 * pos + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (entryBefore(heap[c], heap[best])) best = c;
    }
    if (!entryBefore(heap[best], e)) break;
    placeEntry(pos, heap[best]);
    pos = best;
  }
  placeEntry(pos, e);
}

void EventQueue::heapPush(const HeapEntry& e) {
  heap.push_back(e);  // placeholder; siftUp writes the final position
  siftUp(heap.size() - 1, e);
}

void EventQueue::heapRemoveAt(std::int32_t pos) {
  const std::size_t p = static_cast<std::size_t>(pos);
  const HeapEntry moved = heap.back();
  heap.pop_back();
  if (p == heap.size()) return;  // removed the tail
  if (p > 0 && entryBefore(moved, heap[(p - 1) / 4])) {
    siftUp(p, moved);
  } else {
    siftDown(p, moved);
  }
}

std::uint32_t EventQueue::allocSlot() {
  if (!free_slots.empty()) {
    const std::uint32_t slot = free_slots.back();
    free_slots.pop_back();
    return slot;
  }
  if (slab.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw UsageError("event arena exhausted (2^32 slots)");
  }
  slab.emplace_back();
  meta.emplace_back();
  slot_span.push_back(0);
  return static_cast<std::uint32_t>(slab.size() - 1);
}

void EventQueue::freeSlot(std::uint32_t slot) {
  SlotMeta& m = meta[slot];
  if (++m.generation == 0) m.generation = 1;  // keep ids nonzero on wrap
  m.heap_pos = -1;
  free_slots.push_back(slot);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Simulator
// ---------------------------------------------------------------------------

namespace {
// Compact processes_ once this many finished Process objects accumulate.
constexpr int kProcessReapThreshold = 16;
}  // namespace

Simulator::Simulator() {
  owns_log_time_source_ = util::setLogSimTimeSource([this] { return now(); });
  spans_.setTimeSource([this] { return now(); });
}

Simulator::~Simulator() {
  shutdown();
  if (owns_log_time_source_) util::clearLogSimTimeSource();
}

// ----------------------------------------------------------- scheduling ---

EventId Simulator::scheduleAt(SimTime t, EventFn fn) {
  if (t < queue_.now) throw UsageError("scheduleAt in the past");
  if (fn.onHeap()) eventfn_heap_fallbacks_.inc();
  const std::uint32_t slot = queue_.allocSlot();
  queue_.slab[slot] = std::move(fn);
  // Unconditional store: when tracing is off the context is pinned at 0, and
  // one 8-byte write is cheaper than a mispredictable branch here.
  queue_.slot_span[slot] = spans_.current();
  queue_.heapPush(detail::EventQueue::HeapEntry{t, queue_.next_seq++, slot});
  return (static_cast<EventId>(queue_.meta[slot].generation) << 32) | slot;
}

EventId Simulator::scheduleAfter(SimTime delay, EventFn fn) {
  if (delay < 0) throw UsageError("negative delay");
  return scheduleAt(queue_.now + delay, std::move(fn));
}

void Simulator::cancel(EventId id) {
  const std::uint32_t slot = static_cast<std::uint32_t>(id);
  const std::uint32_t generation = static_cast<std::uint32_t>(id >> 32);
  if (slot >= queue_.slab.size()) return;
  detail::EventQueue::SlotMeta& m = queue_.meta[slot];
  if (m.generation != generation || m.heap_pos < 0) return;
  queue_.slab[slot] = EventFn();  // run capture destructors now, not at some later pop
  queue_.heapRemoveAt(m.heap_pos);
  queue_.freeSlot(slot);
}

void Simulator::dispatchTop() {
  const std::uint32_t slot = queue_.heap.front().slot;
  queue_.now = queue_.heap.front().time;
  // Move the body out before freeing: the body may schedule (growing the
  // slab) or cancel, and its slot must be reusable while it runs.
  EventFn fn = std::move(queue_.slab[slot]);
  const std::uint64_t ctx = queue_.slot_span[slot];
  queue_.heapRemoveAt(0);
  queue_.freeSlot(slot);
  events_executed_.inc();
  if (pulse_.enabled()) pulse_.beat(queue_.now, static_cast<std::int64_t>(queue_.heap.size()));
  if (spans_.enabled()) {
    // Events run in the span context of whoever scheduled them.
    const obs::SpanId prev = spans_.current();
    spans_.setCurrent(ctx);
    fn();
    spans_.setCurrent(prev);
  } else {
    fn();
  }
}

// ---------------------------------------------------------------- running ---

SimTime Simulator::runLoop(SimTime limit, bool bounded) {
  while (!queue_.heap.empty() && (!bounded || queue_.heap.front().time <= limit)) {
    reapIfNeeded();
    dispatchTop();
  }
  if (bounded) queue_.now = limit;
  return queue_.now;
}

SimTime Simulator::run() { return runLoop(0, /*bounded=*/false); }

void Simulator::runUntil(SimTime t) {
  if (t < queue_.now) throw UsageError("runUntil in the past");
  runLoop(t, /*bounded=*/true);
}

void Simulator::saveState(obs::StateWriter& w) const {
  w.i64("now", queue_.now);
  w.u64("next_seq", queue_.next_seq);
  w.u64("pending", queue_.heap.size());
  // The heap is only partially ordered; sort a copy of the ordering keys so
  // the digest does not depend on the internal layout (which varies with the
  // cancel history even between equivalent states).
  std::vector<detail::EventQueue::HeapEntry> entries = queue_.heap;
  std::sort(entries.begin(), entries.end(), detail::EventQueue::entryBefore);
  for (const auto& e : entries) {
    w.i64("ev.t", e.time);
    w.u64("ev.seq", e.seq);
  }
  std::vector<const Process*> procs;
  procs.reserve(live_processes_.size());
  for (const auto& [id, p] : live_processes_) procs.push_back(p);
  std::sort(procs.begin(), procs.end(),
            [](const Process* a, const Process* b) { return a->id_ < b->id_; });
  w.u64("sim.live_processes", procs.size());
  for (const Process* p : procs) {
    w.u64("proc.id", p->id_);
    w.str("proc.name", p->name_);
    w.boolean("proc.suspended", p->suspended_);
    w.boolean("proc.wake_pending", p->wake_pending_);
    w.u64("proc.wait_epoch", p->wait_epoch_);
  }
}

// ------------------------------------------------------------- processes ---

Process& Simulator::spawn(std::string name, std::function<void()> body) {
  if (shutting_down_) throw UsageError("spawn during shutdown");
  // Not make_unique: the constructor is private and Simulator is a friend.
  std::unique_ptr<Process> proc(new Process(*this, next_process_id_++, std::move(name), std::move(body)));
  Process& ref = *proc;
  ref.span_ctx_ = spans_.current();  // children start in the spawner's span
  processes_.push_back(std::move(proc));
  live_processes_.emplace(ref.id(), &ref);
  ++live_process_count_;
  processes_spawned_.inc();
  scheduleResume(ref);
  return ref;
}

void Simulator::scheduleResume(Process& p) {
  p.wake_pending_ = true;
  p.resume_event_ = scheduleAt(queue_.now, [this, proc = &p] {
    proc->resume_event_ = 0;
    proc->wake_pending_ = false;
    runProcessSlice(*proc);
  });
}

void Simulator::runProcessSlice(Process& p) {
  if (p.finished_) return;
  Process* prev = current_;
  current_ = &p;
  p.suspended_ = false;
  if (spans_.enabled()) {
    // Swap in the process's saved span context for the slice: the process
    // resumes inside the span it blocked in, not in the waker's span.
    const obs::SpanId prev_span = spans_.current();
    spans_.setCurrent(p.span_ctx_);
    p.resumeFromKernel();
    p.span_ctx_ = spans_.current();
    spans_.setCurrent(prev_span);
  } else {
    p.resumeFromKernel();
  }
  current_ = prev;
  if (p.finished_) {
    // Exactly once per process: the slice that returned finished.
    live_processes_.erase(p.id_);
    --live_process_count_;
    ++finished_unreaped_;
  }
}

void Simulator::reapIfNeeded() {
  if (finished_unreaped_ >= kProcessReapThreshold) reapFinishedProcesses();
}

void Simulator::reapFinishedProcesses() {
  // Safe point only: called from the run loop between events, when no
  // process is mid-slice.
  // Finished processes have had their threads joined (resumeFromKernel joins
  // on the finishing handoff), so destruction is immediate. Live Process
  // objects keep their addresses (unique_ptr).
  //
  // A process killed with a queued resume (a wake raced the kill) or a
  // pending suspendFor timeout (the unwind skipped the post-yield cancel)
  // is NOT reaped yet: those events captured this Process and fire as
  // no-ops, exactly as they did before reaping existed — freeing under them
  // would dangle, and cancelling them would perturb deterministic event
  // counts. The process is collected on a later pass, once they drain.
  std::erase_if(processes_, [](const std::unique_ptr<Process>& p) {
    return p->finished_ && p->timeout_event_ == 0 && p->resume_event_ == 0;
  });
  // Count newly-finished processes from zero again; stragglers with pending
  // events are retried on the next threshold crossing (or at shutdown),
  // keeping this amortized O(1) per event.
  finished_unreaped_ = 0;
}

void Simulator::shutdown() {
  shutting_down_ = true;
  // Kill in creation order; each killed process unwinds synchronously.
  for (auto& p : processes_) {
    if (!p->finished_) {
      p->kill_ = true;
      process_kills_.inc();
      runProcessSlice(*p);
    }
  }
  processes_.clear();
  live_processes_.clear();
  live_process_count_ = 0;
  finished_unreaped_ = 0;
  shutting_down_ = false;
}

void Simulator::killProcess(Process& p) {
  if (p.finished_) return;
  if (current_ == &p) throw UsageError("a process cannot kill itself");
  p.kill_ = true;
  process_kills_.inc();
  runProcessSlice(p);
}

void Simulator::killProcessById(std::uint64_t id) {
  const auto it = live_processes_.find(id);
  if (it == live_processes_.end()) return;  // finished (possibly reaped)
  killProcess(*it->second);
}

bool Simulator::processFinished(std::uint64_t id) const {
  return live_processes_.find(id) == live_processes_.end();
}

void Simulator::delay(SimTime d) {
  if (d < 0) throw UsageError("negative delay");
  Process& p = currentProcess();
  p.resume_event_ = scheduleAt(queue_.now + d, [this, proc = &p] {
    proc->resume_event_ = 0;
    proc->wake_pending_ = false;
    runProcessSlice(*proc);
  });
  p.wake_pending_ = true;
  p.suspended_ = true;
  p.yieldToKernel();
}

void Simulator::suspend() {
  Process& p = currentProcess();
  ++p.wait_epoch_;
  p.suspended_ = true;
  p.timed_out_ = false;
  p.yieldToKernel();
}

bool Simulator::suspendFor(SimTime timeout) {
  if (timeout < 0) throw UsageError("negative timeout");
  Process& p = currentProcess();
  const std::uint64_t epoch = ++p.wait_epoch_;
  p.suspended_ = true;
  p.timed_out_ = false;
  p.timeout_event_ = scheduleAt(queue_.now + timeout, [this, proc = &p, epoch] {
    // Stale if the process was woken (epoch bumped) or already running.
    if (proc->wait_epoch_ != epoch || !proc->suspended_) return;
    proc->timeout_event_ = 0;
    proc->timed_out_ = true;
    proc->wake_pending_ = false;
    runProcessSlice(*proc);
  });
  p.yieldToKernel();
  if (p.timeout_event_ != 0) {
    cancel(p.timeout_event_);
    p.timeout_event_ = 0;
  }
  return !p.timed_out_;
}

Process& Simulator::currentProcess() {
  if (!current_) throw UsageError("blocking call outside process context");
  return *current_;
}

void Simulator::wake(Process& p) {
  if (p.finished_ || !p.suspended_ || p.wake_pending_) return;
  process_wakes_.inc();
  ++p.wait_epoch_;  // invalidate any pending suspendFor timeout
  if (p.timeout_event_ != 0) {
    cancel(p.timeout_event_);
    p.timeout_event_ = 0;
  }
  scheduleResume(p);
}

std::vector<std::string> Simulator::suspendedProcessNames() const {
  std::vector<std::string> names;
  for (const auto& p : processes_) {
    if (!p->finished_ && p->suspended_) names.push_back(p->name());
  }
  return names;
}

}  // namespace mg::sim
