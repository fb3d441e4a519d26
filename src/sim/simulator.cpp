#include "sim/simulator.h"

#include <signal.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <cxxabi.h>
#include <limits>
#include <mutex>

#include "util/log.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#if !defined(__x86_64__)
#error "sim::Process context switching is implemented for x86-64 only"
#endif

namespace mg::sim {

// ---------------------------------------------------------------------------
// Process contexts: every process runs on its own stack, on the kernel's OS
// thread. A handoff is mg_sim_context_switch, which saves the callee-saved
// registers, MXCSR and the x87 control word on the current stack, stores the
// stack pointer through `from`, loads `to` and restores the same set from
// there (the fcontext model). Everything else is caller-saved by the ABI, so
// the compiler already spilled it around the call.
//
// A fresh stack holds a frame that "returns" into mg_sim_context_entry,
// which tail-jumps to Process::contextMain(process) with a null return
// address on the stack: unwinders and debuggers stop cleanly there.
// ---------------------------------------------------------------------------

extern "C" {
void mg_sim_context_switch(void** from, void* to);
void mg_sim_context_entry();
}

asm(R"(
  .pushsection .text
  .globl mg_sim_context_switch
  .hidden mg_sim_context_switch
  .type mg_sim_context_switch, @function
  .p2align 4
mg_sim_context_switch:
  pushq %rbp
  pushq %rbx
  pushq %r15
  pushq %r14
  pushq %r13
  pushq %r12
  leaq -8(%rsp), %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  leaq 8(%rsp), %rsp
  popq %r12
  popq %r13
  popq %r14
  popq %r15
  popq %rbx
  popq %rbp
  ret
  .size mg_sim_context_switch, .-mg_sim_context_switch

  .globl mg_sim_context_entry
  .hidden mg_sim_context_entry
  .type mg_sim_context_entry, @function
  .p2align 4
mg_sim_context_entry:
  movq %r12, %rdi
  jmpq *%r13
  .size mg_sim_context_entry, .-mg_sim_context_entry
  .popsection
)");

namespace {

constexpr std::size_t kGuardBytes = 4096;

// libstdc++'s per-thread exception state (`__cxa_eh_globals`): the stack of
// caught exceptions and the uncaught count. All processes share one OS
// thread, so each context keeps its own copy and the resumer swaps it in and
// out; otherwise two processes suspended inside catch handlers would pop
// each other's exceptions on `throw;` or handler exit.
struct EhState {
  void* caught = nullptr;
  unsigned int uncaught = 0;
};
static_assert(sizeof(EhState) == 16, "__cxa_eh_globals is two words on x86-64");

EhState* ehGlobals() { return reinterpret_cast<EhState*>(abi::__cxa_get_globals()); }

}  // namespace

namespace detail {

struct ProcessContext {
  explicit ProcessContext(const std::string& process_name) : name(process_name.c_str()) {}

  const char* name;           // for the overflow diagnostic
  void* stack = nullptr;      // lowest usable byte; null before the first slice
  void* sp = nullptr;         // the process's saved stack pointer
  void* caller_sp = nullptr;  // its resumer's, while the process runs
  EhState eh;                 // the process's exception state while switched out
#if defined(__SANITIZE_ADDRESS__)
  void* fake_stack = nullptr;
  const void* caller_bottom = nullptr;
  std::size_t caller_size = 0;
#endif
};

}  // namespace detail

namespace {

using detail::ProcessContext;

// The context running on this thread, for the overflow diagnostic.
thread_local const ProcessContext* t_running = nullptr;

// Frame popped by the first switch into a fresh stack: the restored MXCSR
// and x87 control word, r12 = argument, r13 = target, the other callee-saved
// registers zero, the entry trampoline as return address, and a null slot
// that becomes contextMain's return address.
void* initialFrame(void* stack, void (*fn)(Process*), Process* arg) {
  auto* top = reinterpret_cast<std::uint64_t*>(static_cast<char*>(stack) + kProcessStackBytes);
  std::uint64_t* sp = top - 9;
  std::uint32_t fp_state[2] = {0, 0};  // MXCSR, x87 control word
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(fp_state[0]), "=m"(fp_state[1]));
  std::memcpy(&sp[0], fp_state, sizeof fp_state);
  sp[1] = reinterpret_cast<std::uint64_t>(arg);  // r12
  sp[2] = reinterpret_cast<std::uint64_t>(fn);   // r13
  sp[3] = sp[4] = sp[5] = sp[6] = 0;             // r14 r15 rbx rbp
  sp[7] = reinterpret_cast<std::uint64_t>(&mg_sim_context_entry);
  sp[8] = 0;  // contextMain's return address
  return sp;
}

// --- stack-overflow diagnostic ------------------------------------------
//
// A process overflowing its stack faults in the guard page below it. The
// handler runs on an alternate stack (the process's own is exhausted),
// names the process and aborts. It is installed once per OS process; each
// thread that runs processes gets an alternate stack unless it already has
// one. Under ASan, whose own SIGSEGV handler reports stack overflows, none
// of this is installed.

#if !defined(__SANITIZE_ADDRESS__)

struct sigaction g_prev_segv;

void writeStr(const char* s) {
  const std::size_t n = std::strlen(s);
  (void)!::write(STDERR_FILENO, s, n);
}

void onSegv(int sig, siginfo_t* info, void* uctx) {
  const ProcessContext* c = t_running;
  if (c != nullptr) {
    const char* guard = static_cast<const char*>(c->stack) - kGuardBytes;
    const char* addr = static_cast<const char*>(info->si_addr);
    if (addr >= guard && addr < guard + kGuardBytes) {
      char kib[24];
      char* end = kib + sizeof kib;
      char* d = end;
      *--d = '\0';
      std::size_t n = kProcessStackBytes / 1024;
      do {
        *--d = static_cast<char>('0' + n % 10);
        n /= 10;
      } while (n != 0);
      writeStr("process '");
      writeStr(c->name);
      writeStr("' overflowed its ");
      writeStr(d);
      writeStr(" KiB stack\n");
      std::abort();
    }
  }
  // Not a guard-page hit: hand the fault to whoever owned SIGSEGV before.
  if (g_prev_segv.sa_flags & SA_SIGINFO) {
    g_prev_segv.sa_sigaction(sig, info, uctx);
  } else if (g_prev_segv.sa_handler != SIG_DFL && g_prev_segv.sa_handler != SIG_IGN) {
    g_prev_segv.sa_handler(sig);
  } else {
    // Default action: reinstall it and return; the faulting instruction
    // re-executes and takes the fault without us.
    ::signal(SIGSEGV, SIG_DFL);
  }
}

struct AltStack {
  void* mem = nullptr;
  std::size_t size = 0;
  AltStack() {
    stack_t old{};
    if (::sigaltstack(nullptr, &old) == 0 && !(old.ss_flags & SS_DISABLE)) return;
    size = std::max<std::size_t>(64 * 1024, static_cast<std::size_t>(SIGSTKSZ));
    mem = ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) {
      mem = nullptr;
      return;
    }
    stack_t ss{};
    ss.ss_sp = mem;
    ss.ss_size = size;
    ::sigaltstack(&ss, nullptr);
  }
  ~AltStack() {
    if (mem == nullptr) return;
    stack_t ss{};
    ss.ss_flags = SS_DISABLE;
    ::sigaltstack(&ss, nullptr);
    ::munmap(mem, size);
  }
};

void installOverflowDiagnostic() {
  static std::once_flag once;
  std::call_once(once, [] {
    struct sigaction sa{};
    sa.sa_sigaction = onSegv;
    sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGSEGV, &sa, &g_prev_segv);
  });
  thread_local AltStack alt;
}

#else

void installOverflowDiagnostic() {}

#endif  // !__SANITIZE_ADDRESS__

}  // namespace

namespace detail {

namespace {
// A context that finished or was abandoned can leave its frames' ASan
// redzones poisoned; clear them before the stack (or, after munmap, its
// address range) is used again.
void unpoisonStack([[maybe_unused]] void* stack) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_UNPOISON_MEMORY_REGION(stack, kProcessStackBytes);
#endif
}
}  // namespace

StackPool::~StackPool() {
  for (void* stack : free_) {
    unpoisonStack(stack);
    ::munmap(static_cast<char*>(stack) - kGuardBytes, kProcessStackBytes + kGuardBytes);
  }
}

void* StackPool::acquire() {
  installOverflowDiagnostic();  // cheap after the first call on this thread
  if (!free_.empty()) {
    void* stack = free_.back();
    free_.pop_back();
    unpoisonStack(stack);
    return stack;
  }
  void* base = ::mmap(nullptr, kProcessStackBytes + kGuardBytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
  if (base == MAP_FAILED) {
    throw Error(std::string("cannot map a process stack: ") + std::strerror(errno));
  }
  if (::mprotect(base, kGuardBytes, PROT_NONE) != 0) {
    const int err = errno;
    ::munmap(base, kProcessStackBytes + kGuardBytes);
    throw Error(std::string("cannot protect a process stack guard page: ") + std::strerror(err));
  }
  ++mapped_;
  return static_cast<char*>(base) + kGuardBytes;
}

void StackPool::release(void* stack) { free_.push_back(stack); }

}  // namespace detail

Process::Process(Simulator& sim, std::uint64_t id, std::string name, std::function<void()> body)
    : sim_(sim),
      id_(id),
      name_(std::move(name)),
      body_(std::move(body)),
      ctx_(std::make_unique<ProcessContext>(name_)) {}

Process::~Process() {
  // Only a process whose context never finished still holds a stack (the
  // simulator kills every unfinished process before destroying it).
  if (ctx_->stack) sim_.stacks_.release(ctx_->stack);
}

void Process::contextMain(Process* self) noexcept {
  ProcessContext& c = *self->ctx_;
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(nullptr, &c.caller_bottom, &c.caller_size);
#endif
  try {
    self->body_();
  } catch (const ProcessKilled&) {
    // Normal teardown path.
  } catch (const std::exception& e) {
    MG_LOG_ERROR("sim") << "process '" << self->name_ << "' died with exception: " << e.what();
  }
  self->finished_ = true;
  // Leave for good: the resumer releases this stack once the switch lands.
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_start_switch_fiber(nullptr, c.caller_bottom, c.caller_size);
#endif
  mg_sim_context_switch(&c.sp, c.caller_sp);
  __builtin_unreachable();
}

void Process::resumeFromKernel() {
  ProcessContext& c = *ctx_;
  if (!c.stack) {
    // First slice. A process killed before it ever ran skips its body and
    // never needs a stack.
    if (kill_) {
      finished_ = true;
      return;
    }
    c.stack = sim_.stacks_.acquire();
    c.sp = initialFrame(c.stack, &Process::contextMain, this);
  }
  EhState* eh = ehGlobals();
  const EhState resumer_eh = *eh;
  *eh = c.eh;
  const ProcessContext* const resumer = t_running;
  t_running = &c;
#if defined(__SANITIZE_ADDRESS__)
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&fake_stack, c.stack, kProcessStackBytes);
#endif
  mg_sim_context_switch(&c.caller_sp, c.sp);
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
  t_running = resumer;
  c.eh = *eh;
  *eh = resumer_eh;
  if (finished_) {
    sim_.stacks_.release(c.stack);
    c.stack = nullptr;
  }
}

void Process::yieldToKernel() {
  ProcessContext& c = *ctx_;
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_start_switch_fiber(&c.fake_stack, c.caller_bottom, c.caller_size);
#endif
  mg_sim_context_switch(&c.sp, c.caller_sp);
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(c.fake_stack, &c.caller_bottom, &c.caller_size);
#endif
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
  if (bounded && !queue_.heap.empty()) queue_.now = limit;
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
  // Finished processes already returned their stacks (resumeFromKernel does
  // on the finishing switch), so destruction is immediate. Live Process
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
