// The grid economy driver: an event-driven million-job day in the life.
//
// GridEconomy wires the three econ layers onto a MicroGridPlatform:
//
//   WorkloadGenerator --arrivals--> Broker --placement--> BatchQueue (per
//   cluster) --dispatch--> compute (scheduled finish events, or a GPS
//   processor-sharing pool on time-shared clusters) --> metrics/report
//
// Everything runs as kernel events — never processes — because a million
// jobs must cost a million *events*, not a million process stacks and
// context switches. Data staging is a real fluid flow on the
// platform's network (so transfers contend, and a mid-transfer fault aborts
// and triggers resubmission); each cluster advertises its queue state into
// a GIS directory on a refresh interval, and the broker places from that
// (slightly stale, MDS-style) picture.
//
// Fault path: crashCluster() crashes the head host on the platform, stamps
// the cluster's GIS record with Record_Expires (the PR 2 TTL mechanism), and
// requeues the cluster's in-flight jobs through the broker with doubling
// backoff — the same resubmission discipline the launcher uses.
//
// Determinism: all state lives in ordered containers, the workload is a pure
// function of its seed, fairness is computed from order-independent per-user
// sums, and the report renders through obs::formatDouble — so two runs with
// the same spec produce byte-identical reports.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/microgrid_platform.h"
#include "econ/batch_queue.h"
#include "econ/broker.h"
#include "econ/grid_gen.h"
#include "econ/workload.h"
#include "gis/directory.h"
#include "obs/metrics.h"
#include "util/stats.h"

namespace mg::econ {

struct EconOptions {
  WorkloadSpec workload;
  BrokerPolicy policy = BrokerPolicy::Deadline;
};

/// End-of-run accounting, in the availability-report style.
struct EconReport {
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  std::int64_t deadline_misses = 0;
  std::int64_t rejected_budget = 0;
  std::int64_t rejected_unplaceable = 0;
  std::int64_t failed = 0;  // exhausted resubmission attempts
  std::int64_t resubmits = 0;
  std::int64_t backfill_starts = 0;
  std::int64_t transfers = 0;
  std::int64_t transfer_bytes = 0;
  double makespan_s = 0;  // last completion time (virtual)
  double throughput_jobs_s = 0;
  double slowdown_p50 = 0, slowdown_p95 = 0, slowdown_p99 = 0;
  double mean_wait_s = 0;
  double fairness = 0;  // Jain index over per-user mean slowdown
  double budget_offered = 0;
  double budget_spent = 0;
  std::map<std::string, std::int64_t> per_cluster;  // completed per cluster

  double missRate() const {
    return completed ? static_cast<double>(deadline_misses) / completed : 0;
  }
  /// Byte-stable multi-section text report.
  std::string render() const;
};

class GridEconomy {
 public:
  GridEconomy(core::MicroGridPlatform& platform, const EconGrid& grid, const EconOptions& opts);

  /// Schedule the arrival chain and the GIS refresh loop. Call once, before
  /// platform.simulator().run().
  void arm();

  /// Crash a cluster mid-run at virtual time `at_s`: head host dies, its
  /// GIS record expires, queued/running jobs resubmit elsewhere.
  void scheduleCrash(const std::string& cluster, double at_s);
  void scheduleRestart(const std::string& cluster, double at_s);

  /// Finalize and return the report (call after run() completes).
  EconReport report();

  Broker& broker() { return broker_; }
  const gis::Directory& directory() const { return gis_; }

  /// Time-resolved probes (DESIGN.md §10): econ.active_jobs,
  /// econ.submitted_per_s / econ.completed_per_s, per-cluster queue depth /
  /// backlog / running counts, and the broker's (GIS-stale) per-cluster
  /// backlog view — the gap between econ.queue.backlog_s.<c> and
  /// econ.broker.view_backlog_s.<c> is the staleness the MDS-style refresh
  /// interval buys. The sampler reads these between kernel events, on the
  /// kernel's thread.
  void registerTelemetry(sim::TelemetrySampler& sampler);

 private:
  /// GPS processor-sharing pool: running jobs' cores share `cores`
  /// max-min-uniformly; completions are tracked in virtual-work time V(t)
  /// with dV/dt = min(1, cores / sum(cpus)), so any membership change costs
  /// one event reschedule, not one per running job.
  struct PsPool {
    int cores = 1;
    int load = 0;      // sum of running cpus
    double v = 0;      // virtual work accumulated
    double last_s = 0; // virtual time of last integration
    // (v at finish, job id) -> cpus. Ordered: first key is next to finish.
    std::map<std::pair<double, std::int64_t>, int> by_finish;
    std::map<std::int64_t, double> finish_v;  // id -> its finish V (for remove)

    void integrate(double now_s);
    double rate() const;
    void add(std::int64_t id, int cpus, double work_s, double now_s);
    bool remove(std::int64_t id, double now_s);
    /// Virtual time of the earliest completion; false when idle.
    bool nextFinish(double& when_s, std::int64_t& id) const;
  };

  struct Cluster {
    EconCluster meta;
    BatchQueue queue;
    PsPool ps;          // used when meta.policy == TimeShared
    net::NodeId head_node = net::kNoNode;
    bool alive = true;
    sim::EventId ps_event = 0;  // pending PS-finish event (0 = none)
    std::int64_t completed = 0;  // folded into EconReport::per_cluster

    Cluster(const EconCluster& m, const BatchQueue::Options& qopt) : meta(m), queue(qopt) {
      ps.cores = m.slots;
    }
  };

  /// A job somewhere between placement and completion.
  struct Active {
    Job job;
    Cluster* cluster = nullptr;  // a clusters_ node; those never move
    double runtime_c = 0;  // runtime scaled to the cluster's core speed
    double start_s = -1;   // dispatch time; < 0 while queued/transferring
    int resubmits = 0;
    bool running = false;
    bool backing_off = false;  // a resubmission is already scheduled
    sim::EventId finish_event = 0;  // space-shared finish (0 = none/PS)
  };

  void scheduleNextArrival();
  void handleArrival(Job job, int resubmits);
  void placeJob(Job job, int resubmits);
  void startTransfer(const Job& job, Cluster& c);
  void enqueue(const Job& job, Cluster& c);
  void pump(Cluster& c);
  void startJob(Cluster& c, const StartedJob& s);
  void finishJob(Cluster& c, std::int64_t id);
  void armPsEvent(Cluster& c);
  void resubmit(std::int64_t id, const std::string& reason);
  void publishGis();
  void refreshLoop();
  void crashCluster(const std::string& name);
  void restartCluster(const std::string& name);

  net::NodeId siteHead(int site) const {
    return site >= 0 && static_cast<std::size_t>(site) < site_heads_.size()
               ? site_heads_[static_cast<std::size_t>(site)]
               : net::kNoNode;
  }
  double now_s() const { return platform_.virtualNow(); }
  sim::SimTime kernelAt(double virtual_s) const {
    return platform_.virtualTime().toKernel(virtual_s);
  }

  core::MicroGridPlatform& platform_;
  sim::Simulator& sim_;
  WorkloadGenerator gen_;
  Broker broker_;
  gis::Directory gis_;
  gis::Dn gis_base_;
  // Name-ordered and built once in the constructor: hot closures and
  // Active::cluster hold Cluster* into it.
  std::map<std::string, Cluster> clusters_;
  // Data-site index -> head node of the first (name-ordered) cluster at that
  // site; kNoNode for a site no cluster holds.
  std::vector<net::NodeId> site_heads_;
  std::map<std::int64_t, Active> active_;    // in-flight jobs by id
  bool armed_ = false;
  bool have_next_ = false;
  Job next_job_;

  // Accumulators (order-independent; per-user sums for Jain fairness).
  EconReport rpt_;
  util::Histogram slowdown_hist_;
  double wait_sum_ = 0;
  std::vector<double> user_slowdown_sum_;
  std::vector<std::int32_t> user_jobs_;

  obs::Counter& c_submitted_;
  obs::Counter& c_completed_;
  obs::Counter& c_misses_;
  obs::Counter& c_rejected_budget_;
  obs::Counter& c_rejected_unplaceable_;
  obs::Counter& c_resubmits_;
  obs::Counter& c_backfills_;
  obs::Counter& c_transfers_;
  obs::Counter& c_failed_;
};

}  // namespace mg::econ
