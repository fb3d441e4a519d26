#include "econ/economy.h"

#include <algorithm>
#include <cmath>

#include "net/flow_engine.h"
#include "sim/sampler.h"
#include "util/error.h"

namespace mg::econ {

namespace {
constexpr const char* kGisBase = "ou=MicroGrid, o=Grid";
/// Bounded-slowdown runtime floor (the standard 10 s threshold, so
/// sub-second jobs don't dominate the quantiles).
constexpr double kSlowdownFloorS = 10.0;
/// Seconds between GIS refreshes of the broker's cluster view.
constexpr double kGisRefreshS = 30;
/// Resubmission: the first backoff doubles each attempt; jobs exceeding
/// kMaxResubmits are dropped as failed.
constexpr double kResubmitBackoffS = 5;
constexpr int kMaxResubmits = 5;
}  // namespace

// ---------------------------------------------------------------------------
// PsPool: GPS processor sharing in virtual-work time.
// ---------------------------------------------------------------------------

double GridEconomy::PsPool::rate() const {
  return load > 0 ? std::min(1.0, static_cast<double>(cores) / load) : 0.0;
}

void GridEconomy::PsPool::integrate(double now_s) {
  if (now_s > last_s) v += (now_s - last_s) * rate();
  last_s = now_s;
}

void GridEconomy::PsPool::add(std::int64_t id, int cpus, double work_s, double now_s) {
  integrate(now_s);
  const double fv = v + work_s;
  by_finish[{fv, id}] = cpus;
  finish_v[id] = fv;
  load += cpus;
}

bool GridEconomy::PsPool::remove(std::int64_t id, double now_s) {
  auto it = finish_v.find(id);
  if (it == finish_v.end()) return false;
  integrate(now_s);
  auto bit = by_finish.find({it->second, id});
  load -= bit->second;
  by_finish.erase(bit);
  finish_v.erase(it);
  return true;
}

bool GridEconomy::PsPool::nextFinish(double& when_s, std::int64_t& id) const {
  if (by_finish.empty()) return false;
  const auto& [key, cpus] = *by_finish.begin();
  (void)cpus;
  when_s = last_s + (key.first - v) / rate();
  id = key.second;
  return true;
}

// ---------------------------------------------------------------------------
// GridEconomy
// ---------------------------------------------------------------------------

GridEconomy::GridEconomy(core::MicroGridPlatform& platform, const EconGrid& grid,
                         const EconOptions& opts)
    : platform_(platform),
      sim_(platform.simulator()),
      gen_(opts.workload, static_cast<int>(grid.clusters.size())),
      broker_(Broker::Options{opts.policy}),
      gis_base_(gis::Dn::parse(kGisBase)),
      slowdown_hist_(1.0, 201.0, 2000),
      user_slowdown_sum_(static_cast<std::size_t>(opts.workload.users), 0.0),
      user_jobs_(static_cast<std::size_t>(opts.workload.users), 0),
      c_submitted_(sim_.metrics().counter("econ.jobs.submitted")),
      c_completed_(sim_.metrics().counter("econ.jobs.completed")),
      c_misses_(sim_.metrics().counter("econ.jobs.deadline_misses")),
      c_rejected_budget_(sim_.metrics().counter("econ.jobs.rejected_budget")),
      c_rejected_unplaceable_(sim_.metrics().counter("econ.jobs.rejected_unplaceable")),
      c_resubmits_(sim_.metrics().counter("econ.jobs.resubmits")),
      c_backfills_(sim_.metrics().counter("econ.queue.backfill_starts")),
      c_transfers_(sim_.metrics().counter("econ.data.transfers")),
      c_failed_(sim_.metrics().counter("econ.jobs.failed")) {
  for (const EconCluster& m : grid.clusters) {
    BatchQueue::Options q;
    q.slots = m.slots;
    q.policy = m.policy;
    auto [it, inserted] = clusters_.emplace(m.name, Cluster(m, q));
    if (!inserted) throw ConfigError("econ: duplicate cluster name " + m.name);
    it->second.head_node = platform_.mapper().resolve(m.head).node;
  }
  // Reverse name order, so the first cluster at each site is written last.
  for (auto it = clusters_.rbegin(); it != clusters_.rend(); ++it) {
    const Cluster& c = it->second;
    if (c.meta.site < 0) continue;
    const auto site = static_cast<std::size_t>(c.meta.site);
    if (site >= site_heads_.size()) site_heads_.resize(site + 1, net::kNoNode);
    site_heads_[site] = c.head_node;
  }
  broker_.setTransferEstimator(
      [this](int from_site, const ClusterView& to, std::int64_t bytes) {
        auto tit = clusters_.find(to.name);
        if (tit == clusters_.end()) return 1e9;
        const net::NodeId src = siteHead(from_site);
        if (src == net::kNoNode) return 1e9;
        net::FlowEngine* fe = platform_.network().flows();
        if (!fe) return static_cast<double>(bytes) * 8.0 / 1e9;
        try {
          const sim::SimTime net_t = fe->estimate(src, tit->second.head_node, bytes);
          return platform_.virtualTime().toVirtualSeconds(
              platform_.network().scaleDuration(net_t));
        } catch (const Error&) {
          return 1e9;  // currently unroutable; effectively infeasible
        }
      });
}

void GridEconomy::registerTelemetry(sim::TelemetrySampler& sampler) {
  sampler.addLevel("econ.active_jobs",
                   [this](std::int64_t) { return static_cast<double>(active_.size()); });
  sampler.addCounterRate("econ.submitted_per_s", c_submitted_);
  sampler.addCounterRate("econ.completed_per_s", c_completed_);
  for (auto& [name, cluster] : clusters_) {
    const Cluster* c = &cluster;
    sampler.addLevel("econ.queue.depth." + name,
                     [c](std::int64_t) { return static_cast<double>(c->queue.depth()); });
    sampler.addLevel("econ.queue.backlog_s." + name,
                     [c](std::int64_t) { return c->queue.backlogSeconds(); });
    sampler.addLevel("econ.running." + name,
                     [c](std::int64_t) { return static_cast<double>(c->queue.runningCount()); });
    // The broker's picture of the same cluster — stale by up to one GIS
    // refresh interval (plus TTL effects when the cluster crashed).
    sampler.addLevel("econ.broker.view_backlog_s." + name, [this, name = name](std::int64_t) {
      const auto& views = broker_.views();
      auto it = views.find(name);
      return it == views.end() ? 0.0 : it->second.backlog_s;
    });
  }
}

void GridEconomy::registerStateCapture(obs::StateCaptureRegistry& reg) {
  reg.add("econ", [this](obs::StateWriter& w) {
    w.u64("econ.clusters", clusters_.size());
    for (const auto& [name, c] : clusters_) {
      w.str("cluster", name);
      w.boolean("alive", c.alive);
      w.i64("queue_depth", c.queue.depth());
      w.i64("running", c.queue.runningCount());
      w.f64("backlog_s", c.queue.backlogSeconds());
      w.i64("ps_load", c.ps.load);
      w.f64("ps_v", c.ps.v);
    }
    w.u64("econ.active", active_.size());
    for (const auto& [id, a] : active_) {
      w.i64("job", id);
      w.str("cluster", a.cluster->meta.name);
      w.boolean("running", a.running);
      w.boolean("backing_off", a.backing_off);
      w.i64("resubmits", a.resubmits);
      w.f64("start_s", a.start_s);
    }
    w.boolean("have_next", have_next_);
    if (have_next_) w.f64("next_submit_s", next_job_.submit_s);
  });
}

void GridEconomy::arm() {
  if (armed_) throw UsageError("GridEconomy::arm called twice");
  armed_ = true;
  publishGis();
  broker_.refreshFromGis(gis_, gis_base_, 0.0);
  have_next_ = gen_.next(next_job_);
  scheduleNextArrival();
  sim_.scheduleAt(kernelAt(kGisRefreshS), [this] { refreshLoop(); });
}

void GridEconomy::scheduleNextArrival() {
  if (!have_next_) return;
  const sim::SimTime t = std::max(sim_.now(), kernelAt(next_job_.submit_s));
  sim_.scheduleAt(t, [this] {
    Job job = next_job_;
    have_next_ = gen_.next(next_job_);
    scheduleNextArrival();
    handleArrival(job, 0);
  });
}

void GridEconomy::handleArrival(Job job, int resubmits) {
  if (resubmits == 0) {
    c_submitted_.inc();
    ++rpt_.submitted;
  }
  placeJob(job, resubmits);
}

void GridEconomy::placeJob(Job job, int resubmits) {
  const Placement p = broker_.place(job, now_s());
  if (!p.placed) {
    if (p.reject_reason && std::string(p.reject_reason) == "budget") {
      c_rejected_budget_.inc();
      ++rpt_.rejected_budget;
    } else {
      c_rejected_unplaceable_.inc();
      ++rpt_.rejected_unplaceable;
    }
    active_.erase(job.id);
    return;
  }
  Cluster& c = clusters_.at(p.cluster);
  Active& a = active_[job.id];
  a.job = job;
  a.cluster = &c;
  a.runtime_c = job.runtime_s * (kRefCoreOps / c.meta.core_ops);
  a.start_s = -1;
  a.resubmits = resubmits;
  a.running = false;
  a.backing_off = false;
  a.finish_event = 0;
  const double est_c = job.est_runtime_s * (kRefCoreOps / c.meta.core_ops);
  broker_.noteScheduled(p.cluster, job.cpus, est_c * job.cpus);

  if (job.input_bytes > 0 && job.data_site >= 0 && job.data_site != c.meta.site) {
    startTransfer(job, c);
  } else {
    enqueue(job, c);
  }
}

void GridEconomy::startTransfer(const Job& job, Cluster& c) {
  net::FlowEngine* fe = platform_.network().flows();
  const net::NodeId src = siteHead(job.data_site);
  if (!fe || src == net::kNoNode || src == c.head_node) {
    enqueue(job, c);
    return;
  }
  const std::int64_t id = job.id;
  try {
    fe->start(
        src, c.head_node, job.input_bytes,
        [this, id] {
          auto it = active_.find(id);
          if (it == active_.end() || it->second.backing_off) return;
          Cluster& dst = *it->second.cluster;
          if (!dst.alive) {
            resubmit(id, "cluster_down");
            return;
          }
          enqueue(it->second.job, dst);
        },
        [this, id](const std::string& reason) { resubmit(id, reason); });
    c_transfers_.inc();
    ++rpt_.transfers;
    rpt_.transfer_bytes += job.input_bytes;
  } catch (const Error&) {
    // Source or destination currently unroutable: treat like an abort.
    resubmit(id, "transfer_unroutable");
  }
}

void GridEconomy::enqueue(const Job& job, Cluster& c) {
  QueuedJob q;
  q.id = job.id;
  q.cpus = job.cpus;
  q.est_runtime_s = job.est_runtime_s * (kRefCoreOps / c.meta.core_ops);
  q.submit_s = now_s();
  c.queue.submit(q);
  pump(c);
}

void GridEconomy::pump(Cluster& c) {
  for (const StartedJob& s : c.queue.dispatch(now_s())) startJob(c, s);
}

void GridEconomy::startJob(Cluster& c, const StartedJob& s) {
  auto it = active_.find(s.job.id);
  if (it == active_.end()) return;
  Active& a = it->second;
  const double now = now_s();
  a.start_s = now;
  a.running = true;
  if (s.backfilled) {
    c_backfills_.inc();
    ++rpt_.backfill_starts;
  }
  if (c.meta.policy == QueuePolicy::TimeShared) {
    c.ps.add(a.job.id, a.job.cpus, a.runtime_c, now);
    armPsEvent(c);
  } else {
    const std::int64_t id = a.job.id;
    a.finish_event = sim_.scheduleAt(std::max(sim_.now(), kernelAt(now + a.runtime_c)),
                                     [this, id, cl = &c] { finishJob(*cl, id); });
  }
}

void GridEconomy::armPsEvent(Cluster& c) {
  if (c.ps_event != 0) {
    sim_.cancel(c.ps_event);
    c.ps_event = 0;
  }
  double when = 0;
  std::int64_t id = 0;
  if (!c.ps.nextFinish(when, id)) return;
  // +1 ns past the converted finish time, so the guard below never spins on
  // float/integer rounding.
  const sim::SimTime t = std::max(sim_.now(), kernelAt(when) + 1);
  c.ps_event = sim_.scheduleAt(t, [this, cl = &c] {
    cl->ps_event = 0;
    double w = 0;
    std::int64_t jid = 0;
    while (cl->ps.nextFinish(w, jid) && kernelAt(w) < sim_.now()) finishJob(*cl, jid);
    armPsEvent(*cl);
  });
}

void GridEconomy::finishJob(Cluster& c, std::int64_t id) {
  auto it = active_.find(id);
  if (it == active_.end()) return;
  const Active a = it->second;
  active_.erase(it);
  const double now = now_s();
  if (c.meta.policy == QueuePolicy::TimeShared) c.ps.remove(id, now);
  c.queue.finish(id);

  const double wait = std::max(0.0, a.start_s - a.job.submit_s);
  const double run = std::max(1e-9, now - a.start_s);
  const double slowdown = std::max(1.0, (wait + run) / std::max(run, kSlowdownFloorS));
  slowdown_hist_.add(slowdown);
  wait_sum_ += wait;
  if (a.job.user < user_jobs_.size()) {
    user_slowdown_sum_[a.job.user] += slowdown;
    user_jobs_[a.job.user] += 1;
  }
  rpt_.budget_offered += a.job.budget;
  rpt_.budget_spent += c.meta.price_per_cpu_s * a.job.cpus * a.runtime_c;
  if (now > a.job.deadline_s) {
    c_misses_.inc();
    ++rpt_.deadline_misses;
  }
  c_completed_.inc();
  ++rpt_.completed;
  ++c.completed;
  rpt_.makespan_s = std::max(rpt_.makespan_s, now);
  pump(c);
}

void GridEconomy::resubmit(std::int64_t id, const std::string& reason) {
  (void)reason;
  auto it = active_.find(id);
  if (it == active_.end()) return;
  Active& a = it->second;
  if (a.backing_off) return;  // already on its way back through the broker
  // Undo any queue/pool residue on the old cluster (covers flow-abort while
  // queued and crash requeues alike; a crash may already have reset both).
  Cluster& c = *a.cluster;
  c.queue.cancel(id);
  if (a.running) {
    if (c.meta.policy == QueuePolicy::TimeShared) {
      if (c.ps.remove(id, now_s())) armPsEvent(c);
    }
    c.queue.finish(id);
  }
  if (a.finish_event != 0) {
    sim_.cancel(a.finish_event);
    a.finish_event = 0;
  }
  a.running = false;
  a.start_s = -1;
  if (a.resubmits >= kMaxResubmits) {
    c_failed_.inc();
    ++rpt_.failed;
    active_.erase(it);
    return;
  }
  a.resubmits += 1;
  a.backing_off = true;
  c_resubmits_.inc();
  ++rpt_.resubmits;
  const double backoff =
      kResubmitBackoffS * static_cast<double>(std::int64_t{1} << (a.resubmits - 1));
  const Job job = a.job;
  const int n = a.resubmits;
  sim_.scheduleAt(std::max(sim_.now(), kernelAt(now_s() + backoff)),
                  [this, job, n] { placeJob(job, n); });
}

void GridEconomy::publishGis() {
  const double now = now_s();
  for (auto& [name, c] : clusters_) {
    ClusterView v;
    v.name = name;
    v.head_host = c.meta.head;
    v.site = c.meta.site;
    v.slots = c.meta.slots;
    v.free_slots = c.queue.freeSlots();
    v.queue_depth = c.queue.depth();
    v.backlog_s = c.queue.estimateWait(1, now);
    v.price_per_cpu_s = c.meta.price_per_cpu_s;
    v.core_ops = c.meta.core_ops;
    v.alive = c.alive;
    gis::Record r = makeQueueRecord(gis_base_, v);
    // A dead cluster's record expires immediately: the broker's next
    // TTL-honoring search simply stops seeing it (the PR 2 mechanism).
    if (!c.alive) r.set(gis::kAttrExpires, obs::formatDouble(now));
    gis_.upsert(std::move(r));
  }
}

void GridEconomy::refreshLoop() {
  publishGis();
  broker_.refreshFromGis(gis_, gis_base_, now_s());
  if (!have_next_ && active_.empty()) return;  // drained: let the run end
  sim_.scheduleAt(kernelAt(now_s() + kGisRefreshS), [this] { refreshLoop(); });
}

void GridEconomy::scheduleCrash(const std::string& cluster, double at_s) {
  if (clusters_.find(cluster) == clusters_.end()) {
    throw ConfigError("econ: unknown cluster " + cluster);
  }
  sim_.scheduleAt(kernelAt(at_s), [this, cluster] { crashCluster(cluster); });
}

void GridEconomy::scheduleRestart(const std::string& cluster, double at_s) {
  if (clusters_.find(cluster) == clusters_.end()) {
    throw ConfigError("econ: unknown cluster " + cluster);
  }
  sim_.scheduleAt(kernelAt(at_s), [this, cluster] { restartCluster(cluster); });
}

void GridEconomy::crashCluster(const std::string& name) {
  Cluster& c = clusters_.at(name);
  if (!c.alive) return;
  c.alive = false;
  // Node-down aborts every flow through the head; each abort callback lands
  // in resubmit() before we collect the rest below.
  platform_.crashHost(c.meta.head);
  broker_.noteDown(name);
  publishGis();

  std::vector<std::int64_t> affected;
  for (const auto& [id, a] : active_) {
    if (a.cluster == &c) affected.push_back(id);
  }
  // Reset the queue/pool wholesale, in place (closures hold &c); resubmit()
  // then treats each job as already evicted.
  c.queue = BatchQueue(c.queue.options());
  if (c.ps_event != 0) {
    sim_.cancel(c.ps_event);
    c.ps_event = 0;
  }
  c.ps = PsPool{};
  c.ps.cores = c.meta.slots;
  c.ps.last_s = now_s();
  for (std::int64_t id : affected) resubmit(id, "cluster_down");
}

void GridEconomy::restartCluster(const std::string& name) {
  Cluster& c = clusters_.at(name);
  if (c.alive) return;
  c.alive = true;
  platform_.restartHost(c.meta.head);
  publishGis();
  broker_.refreshFromGis(gis_, gis_base_, now_s());
}

EconReport GridEconomy::report() {
  for (const auto& [name, c] : clusters_) {
    if (c.completed > 0) rpt_.per_cluster[name] = c.completed;
  }
  rpt_.slowdown_p50 = slowdown_hist_.quantile(0.50);
  rpt_.slowdown_p95 = slowdown_hist_.quantile(0.95);
  rpt_.slowdown_p99 = slowdown_hist_.quantile(0.99);
  rpt_.mean_wait_s = rpt_.completed ? wait_sum_ / static_cast<double>(rpt_.completed) : 0;
  rpt_.throughput_jobs_s =
      rpt_.makespan_s > 0 ? static_cast<double>(rpt_.completed) / rpt_.makespan_s : 0;
  // Jain fairness over per-user mean slowdown: (sum x)^2 / (n * sum x^2).
  // Pure sums, so the result is independent of completion order.
  double sx = 0, sxx = 0;
  std::int64_t n = 0;
  for (std::size_t u = 0; u < user_jobs_.size(); ++u) {
    if (user_jobs_[u] == 0) continue;
    const double x = user_slowdown_sum_[u] / user_jobs_[u];
    sx += x;
    sxx += x * x;
    ++n;
  }
  rpt_.fairness = (n > 0 && sxx > 0) ? (sx * sx) / (static_cast<double>(n) * sxx) : 1.0;
  return rpt_;
}

std::string EconReport::render() const {
  std::string out = "== grid economy report ==\n";
  util::Table t({"metric", "value"});
  auto add = [&t](const std::string& k, const std::string& v) { t.addRow({k, v}); };
  add("jobs.submitted", std::to_string(submitted));
  add("jobs.completed", std::to_string(completed));
  add("jobs.deadline_misses", std::to_string(deadline_misses));
  add("jobs.deadline_miss_rate", obs::formatDouble(missRate()));
  add("jobs.rejected_budget", std::to_string(rejected_budget));
  add("jobs.rejected_unplaceable", std::to_string(rejected_unplaceable));
  add("jobs.failed", std::to_string(failed));
  add("jobs.resubmits", std::to_string(resubmits));
  add("queue.backfill_starts", std::to_string(backfill_starts));
  add("data.transfers", std::to_string(transfers));
  add("data.transfer_bytes", std::to_string(transfer_bytes));
  add("time.makespan_s", obs::formatDouble(makespan_s));
  add("rate.throughput_jobs_s", obs::formatDouble(throughput_jobs_s));
  add("slowdown.p50", obs::formatDouble(slowdown_p50));
  add("slowdown.p95", obs::formatDouble(slowdown_p95));
  add("slowdown.p99", obs::formatDouble(slowdown_p99));
  add("wait.mean_s", obs::formatDouble(mean_wait_s));
  add("fairness.jain", obs::formatDouble(fairness));
  add("budget.offered", obs::formatDouble(budget_offered));
  add("budget.spent", obs::formatDouble(budget_spent));
  out += t.render();
  if (!per_cluster.empty()) {
    out += "\n-- completed jobs per cluster --\n";
    util::Table pc({"cluster", "completed"});
    for (const auto& [name, count] : per_cluster) pc.addRow({name, std::to_string(count)});
    out += pc.render();
  }
  return out;
}

}  // namespace mg::econ
