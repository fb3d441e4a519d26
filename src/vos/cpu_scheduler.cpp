#include "vos/cpu_scheduler.h"

#include <algorithm>
#include <cmath>

#include "sim/sampler.h"

namespace mg::vos {

namespace {
constexpr double kEps = 1e-12;
}

CpuScheduler::CpuScheduler(sim::Simulator& sim, double physical_ops, sim::SimTime quantum,
                           CompetitionProfile competition, std::uint64_t seed)
    : sim_(sim),
      physical_ops_(physical_ops),
      quantum_(quantum),
      competition_(competition),
      c_quanta_(sim.metrics().counter("vos.sched.quanta")),
      c_tasks_added_(sim.metrics().counter("vos.sched.tasks_added")),
      g_cpu_seconds_(sim.metrics().gauge("vos.sched.cpu_seconds_delivered")),
      // Fig 7's normalized quantum-length distribution, registry edition.
      h_quantum_norm_(sim.metrics().histogram("vos.sched.quantum_norm", 0.8, 1.2, 40)),
      rng_(seed) {
  if (physical_ops <= 0) throw ConfigError("physical CPU speed must be positive");
  if (quantum <= 0) throw ConfigError("scheduler quantum must be positive");
  if (competition.capacity_cap <= 0 || competition.capacity_cap > 1.0) {
    throw ConfigError("competition capacity cap must be in (0, 1]");
  }
}

CpuScheduler::Task& CpuScheduler::liveTask(TaskId id) {
  if (id < 0 || static_cast<size_t>(id) >= tasks_.size() || !tasks_[static_cast<size_t>(id)].live) {
    throw UsageError("unknown scheduler task");
  }
  return tasks_[static_cast<size_t>(id)];
}

CpuScheduler::TaskId CpuScheduler::addTask(std::string name, double fraction, std::string track) {
  if (fraction <= 0 || fraction > 1.0) throw UsageError("task fraction must be in (0, 1]");
  Task t;
  t.name = std::move(name);
  t.track = std::move(track);
  t.fraction = fraction;
  t.start_time = sim_.now();
  t.live = true;
  tasks_.push_back(std::move(t));
  c_tasks_added_.inc();
  return static_cast<TaskId>(tasks_.size() - 1);
}

void CpuScheduler::removeTask(TaskId id) {
  // Forgiving teardown: a process killed mid-compute (host crash, shutdown)
  // unwinds through here with demand still pending, possibly from inside a
  // destructor — throwing would terminate. Dropping the demand and waiter is
  // the correct semantics: the process is gone, nobody will be woken.
  Task& t = liveTask(id);
  t.live = false;
  t.demand = 0;
  t.waiter = nullptr;
}

void CpuScheduler::setFraction(TaskId id, double fraction) {
  if (fraction <= 0 || fraction > 1.0) throw UsageError("task fraction must be in (0, 1]");
  Task& t = liveTask(id);
  // Re-baseline the Fig 4 accounting so the new fraction applies from now:
  // a task that was starved (or overfed) under the old fraction should not
  // carry that history into the new allocation.
  t.start_time = sim_.now();
  t.used_cpu = 0;
  t.fraction = fraction;
}

void CpuScheduler::compute(TaskId id, double ops) {
  if (ops < 0) throw UsageError("negative compute demand");
  computeSeconds(id, ops / physical_ops_);
}

void CpuScheduler::computeSeconds(TaskId id, double cpu_seconds) {
  if (cpu_seconds < 0) throw UsageError("negative compute demand");
  Task& t = liveTask(id);
  if (t.waiter != nullptr) throw UsageError("task already has a pending compute request");
  if (cpu_seconds == 0) return;
  // Cap banked credit at one quantum. The literal Fig 4 guard accrues
  // credit for the task's whole lifetime, which would let a task that just
  // waited on a message burn through a long compute at full physical speed
  // — destroying the rate invariance of Fig 15 for alternating workloads.
  const double max_credit = sim::toSeconds(quantum_);
  const double credit =
      t.fraction * sim::toSeconds(sim_.now() - t.start_time) - t.used_cpu;
  if (credit > max_credit) {
    t.start_time = sim_.now() - sim::fromSeconds((t.used_cpu + max_credit) / t.fraction);
  }
  t.demand = cpu_seconds;
  t.waiter = &sim_.currentProcess();
  t.span = sim_.spans().current();
  scheduleNext();
  while (t.demand > kEps) sim_.suspend();
  t.waiter = nullptr;
  t.demand = 0;
}

double CpuScheduler::usedCpuSeconds(TaskId id) const {
  return const_cast<CpuScheduler*>(this)->liveTask(id).used_cpu;
}

sim::SimTime CpuScheduler::eligibleAt(const Task& t) const {
  // Fig 4 guard: run while fraction * elapsed >= used. Eligible again when
  // elapsed = used / fraction.
  const double elapsed_needed = t.used_cpu / t.fraction;
  return t.start_time + sim::fromSeconds(elapsed_needed);
}

void CpuScheduler::scheduleNext() {
  if (running_) return;
  if (wake_event_ != 0) {
    sim_.cancel(wake_event_);
    wake_event_ = 0;
  }

  // Round-robin scan for a demanding, eligible task.
  const std::size_t n = tasks_.size();
  const sim::SimTime now = sim_.now();
  std::size_t chosen = n;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = (rr_next_ + k) % n;
    const Task& t = tasks_[i];
    if (!t.live || t.demand <= kEps) continue;
    if (eligibleAt(t) <= now) {
      chosen = i;
      break;
    }
  }

  if (chosen == n) {
    // Nobody is eligible; sleep until the earliest eligibility.
    sim::SimTime earliest = -1;
    for (const Task& t : tasks_) {
      if (!t.live || t.demand <= kEps) continue;
      const sim::SimTime e = eligibleAt(t);
      if (earliest < 0 || e < earliest) earliest = e;
    }
    if (earliest < 0) return;  // fully idle
    wake_event_ = sim_.scheduleAt(std::max(earliest, now), [this] {
      wake_event_ = 0;
      scheduleNext();
    });
    return;
  }

  Task& t = tasks_[chosen];
  rr_next_ = (chosen + 1) % n;
  running_ = true;

  // Delivered quantum: nominal, jittered by competition. Competition also
  // stretches the wall time needed to obtain the CPU (the Linux timesharing
  // scheduler splits the machine between the MicroGrid and the hogs).
  const double jitter =
      std::clamp(rng_.normal(competition_.quantum_jitter_mean, competition_.quantum_jitter_dev),
                 0.05, 4.0);
  const double nominal = sim::toSeconds(quantum_);
  const double full_quantum = nominal * jitter;
  const double cpu_slice = std::min(full_quantum, t.demand);
  quanta_log_.push_back(full_quantum / nominal);
  c_quanta_.inc();
  g_cpu_seconds_.add(cpu_slice);
  h_quantum_norm_.add(full_quantum / nominal);
  const double cap = competition_.capacity_cap;
  busy_start_ = sim_.now();
  busy_until_ = busy_start_ + sim::fromSeconds(full_quantum / cap);

  // Each granted quantum becomes a span parented to the compute request that
  // demanded it, on the requester's host track — the Fig 4 slice made
  // visible in the causal trace.
  obs::SpanId qspan = 0;
  if (sim_.spans().enabled()) {
    qspan = sim_.spans().beginChildOf(t.span, "vos.sched", "quantum",
                                      t.track.empty() ? t.name : t.track);
    sim_.spans().annotate(qspan, "task", t.name);
  }

  // The task's pending demand is satisfied partway through the slice...
  sim_.scheduleAfter(sim::fromSeconds(cpu_slice / cap), [this, chosen, cpu_slice] {
    Task& task = tasks_[chosen];
    if (!task.live) return;  // removed mid-quantum (crash teardown)
    task.demand -= cpu_slice;
    if (task.demand <= kEps) {
      task.demand = 0;
      if (task.waiter != nullptr) sim_.wake(*task.waiter);
    }
  });
  // ...but the Fig 4 daemon sleeps one quantum between start/stop signals,
  // so the slice occupies its full wall length and usage is metered as the
  // whole quantum. This boundary-granularity effect is the modeling error
  // the paper's Fig 11 quantum sweep measures.
  //
  // Even when the task died mid-quantum the CPU stays occupied to the slice
  // boundary and `running_` must reset, or the scheduler would stall; the
  // usage charge is simply not booked to the dead task, so no credit leaks
  // into a later task reusing the slot.
  sim_.scheduleAfter(sim::fromSeconds(full_quantum / cap), [this, chosen, full_quantum, qspan] {
    sim_.spans().end(qspan);  // no-op for 0 and for crash-aborted spans
    if (tasks_[chosen].live) tasks_[chosen].used_cpu += full_quantum;
    busy_wall_s_ += full_quantum / competition_.capacity_cap;
    running_ = false;
    scheduleNext();
  });
}

void CpuScheduler::registerTelemetry(sim::TelemetrySampler& sampler, const std::string& label) {
  sampler.addRate("vos.cpu.util." + label, [this](std::int64_t t) {
    double busy = busy_wall_s_;
    if (running_) {
      // Open slice, closed against the sampler's clock (clamped to the
      // slice's scheduled end).
      const sim::SimTime end = std::min<sim::SimTime>(t, busy_until_);
      if (end > busy_start_) busy += sim::toSeconds(end - busy_start_);
    }
    return busy;
  });
  sampler.addLevel("vos.runq." + label, [this](std::int64_t) {
    double n = 0;
    for (const Task& task : tasks_) {
      if (task.live && task.demand > kEps) ++n;
    }
    return n;
  });
}

void CpuScheduler::saveState(obs::StateWriter& w) const {
  w.u64("vos.sched.tasks", tasks_.size());
  for (const Task& t : tasks_) {
    w.str("task", t.name);
    w.boolean("live", t.live);
    w.f64("fraction", t.fraction);
    w.f64("used_cpu", t.used_cpu);
    w.f64("demand", t.demand);
    w.boolean("waiting", t.waiter != nullptr);
  }
  w.u64("rr_next", rr_next_);
  w.boolean("running", running_);
  w.f64("busy_wall_s", busy_wall_s_);
  w.i64("busy_start", busy_start_);
  w.i64("busy_until", busy_until_);
  for (std::uint64_t word : rng_.fingerprint()) w.u64("rng", word);
}

}  // namespace mg::vos
