// Tests for the grid-economy subsystem: workload synthesis, batch-queue
// policies, broker placement, and the end-to-end event-driven economy.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/microgrid_platform.h"
#include "econ/batch_queue.h"
#include "econ/broker.h"
#include "econ/economy.h"
#include "econ/grid_gen.h"
#include "econ/workload.h"
#include "gis/directory.h"
#include "util/config.h"

#include "test_scenarios.h"

using namespace mg;

// --------------------------------------------------------------- workload --

TEST(Workload, DeterministicForSameSeed) {
  econ::WorkloadSpec spec;
  spec.jobs = 500;
  econ::WorkloadGenerator a(spec, 4), b(spec, 4);
  econ::Job ja, jb;
  while (a.next(ja)) {
    ASSERT_TRUE(b.next(jb));
    EXPECT_EQ(ja.id, jb.id);
    EXPECT_EQ(ja.user, jb.user);
    EXPECT_EQ(ja.submit_s, jb.submit_s);
    EXPECT_EQ(ja.runtime_s, jb.runtime_s);
    EXPECT_EQ(ja.cpus, jb.cpus);
    EXPECT_EQ(ja.deadline_s, jb.deadline_s);
    EXPECT_EQ(ja.budget, jb.budget);
    EXPECT_EQ(ja.input_bytes, jb.input_bytes);
  }
  EXPECT_FALSE(b.next(jb));
}

TEST(Workload, ArrivalsMonotoneAndAttributesSane) {
  econ::WorkloadSpec spec;
  spec.jobs = 2000;
  spec.max_cpus = 16;
  econ::WorkloadGenerator gen(spec, 4);
  econ::Job j;
  double last = 0;
  std::set<std::uint32_t> users;
  while (gen.next(j)) {
    EXPECT_GT(j.submit_s, last);  // strictly increasing arrival clock
    last = j.submit_s;
    EXPECT_GE(j.cpus, 1);
    EXPECT_LE(j.cpus, spec.max_cpus);
    EXPECT_EQ(j.cpus & (j.cpus - 1), 0);  // power of two
    EXPECT_GE(j.runtime_s, 1.0);
    EXPECT_GE(j.est_runtime_s, j.runtime_s);  // user estimates overestimate
    EXPECT_GT(j.deadline_s, j.submit_s);
    EXPECT_GT(j.budget, 0.0);
    if (j.input_bytes > 0) {
      EXPECT_GE(j.data_site, 0);
      EXPECT_LT(j.data_site, 4);
    }
    users.insert(j.user);
  }
  EXPECT_GT(users.size(), 100u);  // many distinct submitting users
}

TEST(Workload, SpecFromConfigAndValidation) {
  const util::Config cfg = util::Config::parse(
      "[workload]\n"
      "jobs = 77\n"
      "seed = 9\n"
      "arrival = pareto\n"
      "rate = 3.5\n"
      "max_cpus = 8\n");
  const econ::WorkloadSpec spec = econ::WorkloadSpec::fromConfig(cfg);
  EXPECT_EQ(spec.jobs, 77);
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_EQ(spec.arrival, econ::ArrivalProcess::Pareto);
  EXPECT_EQ(spec.rate, 3.5);
  EXPECT_EQ(spec.max_cpus, 8);

  econ::WorkloadSpec bad;
  bad.pareto_alpha = 0.9;  // infinite-mean interarrivals
  EXPECT_THROW(bad.validate(), mg::ConfigError);
}

// ------------------------------------------------------------ batch queue --

namespace {

econ::QueuedJob qj(std::int64_t id, int cpus, double est, double submit = 0) {
  return econ::QueuedJob{id, cpus, est, submit};
}

std::vector<std::int64_t> ids(const std::vector<econ::StartedJob>& started) {
  std::vector<std::int64_t> out;
  for (const auto& s : started) out.push_back(s.job.id);
  return out;
}

}  // namespace

TEST(BatchQueue, EasyBackfillRespectsShadowReservation) {
  econ::BatchQueue::Options opt;
  opt.slots = 4;
  opt.policy = econ::QueuePolicy::EasyBackfill;
  econ::BatchQueue q(opt);
  q.submit(qj(1, 2, 10));  // runs, ends at t=10 by its estimate
  ASSERT_EQ(ids(q.dispatch(0)), (std::vector<std::int64_t>{1}));
  q.submit(qj(2, 4, 10));  // head: needs all 4 slots, shadow time t=10
  q.submit(qj(3, 2, 5));   // fits now, ends t=5 <= shadow: backfills
  q.submit(qj(4, 2, 20));  // would end t=20 > shadow and no extra: waits
  const auto started = q.dispatch(0);
  ASSERT_EQ(ids(started), (std::vector<std::int64_t>{3}));
  EXPECT_TRUE(started[0].backfilled);
  // Head starts only once both running jobs have released their cores.
  EXPECT_TRUE(q.finish(1));
  EXPECT_FALSE(q.finish(1));  // already released
  EXPECT_TRUE(q.dispatch(10).empty());
  EXPECT_TRUE(q.finish(3));
  EXPECT_EQ(ids(q.dispatch(10)), (std::vector<std::int64_t>{2}));
  EXPECT_TRUE(q.finish(2));
  EXPECT_EQ(ids(q.dispatch(20)), (std::vector<std::int64_t>{4}));
}

TEST(BatchQueue, CancelRemovesQueuedButNotRunning) {
  econ::BatchQueue q({});
  q.submit(qj(1, 8, 10));
  q.dispatch(0);
  q.submit(qj(2, 1, 1));
  EXPECT_TRUE(q.cancel(2));
  EXPECT_FALSE(q.cancel(2));  // gone
  EXPECT_FALSE(q.cancel(1));  // running jobs are not cancellable here
  EXPECT_EQ(q.depth(), 0);
}

TEST(BatchQueue, TimeSharedAdmitsOversubscribed) {
  econ::BatchQueue::Options opt;
  opt.slots = 2;
  opt.policy = econ::QueuePolicy::TimeShared;
  econ::BatchQueue q(opt);
  static_assert(econ::kOversubscribe == 4);
  q.submit(qj(1, 4, 10));
  q.submit(qj(2, 4, 10));  // 8 cores on 2 slots: admitted (stretched)
  q.submit(qj(3, 1, 10));  // past the admission cap of 4 x 2: queues
  EXPECT_EQ(ids(q.dispatch(0)), (std::vector<std::int64_t>{1, 2}));
  EXPECT_EQ(q.depth(), 1);
  EXPECT_TRUE(q.finish(1));
  EXPECT_EQ(ids(q.dispatch(5)), (std::vector<std::int64_t>{3}));
}

TEST(BatchQueue, SubmitOfARunningIdThrows) {
  econ::BatchQueue q({});
  q.submit(qj(1, 2, 10));
  ASSERT_EQ(ids(q.dispatch(0)), (std::vector<std::int64_t>{1}));
  EXPECT_THROW(q.submit(qj(1, 2, 10)), mg::UsageError);
  EXPECT_EQ(q.depth(), 0);
  EXPECT_EQ(q.freeSlots(), 6);
  EXPECT_TRUE(q.finish(1));
  EXPECT_EQ(q.freeSlots(), 8);
  q.submit(qj(1, 2, 10));  // finished ids may come back
  EXPECT_EQ(ids(q.dispatch(1)), (std::vector<std::int64_t>{1}));
}

TEST(BatchQueue, EqualExpectedEndsFreeCoresInIdOrder) {
  // Two running jobs both end at t=10 on 5 slots, 1 core free. The head
  // needs 2, so the shadow walk stops after the first tied job it visits;
  // whatever that job frees beyond the head's need is the backfill "extra"
  // pool. Candidate 4 (1 core, ends t=50 > shadow) starts only from extra.
  auto run = [](int cpus_of_1, int cpus_of_2) {
    econ::BatchQueue::Options opt;
    opt.slots = 5;
    opt.policy = econ::QueuePolicy::EasyBackfill;
    econ::BatchQueue q(opt);
    q.submit(qj(1, cpus_of_1, 10));
    q.submit(qj(2, cpus_of_2, 10));
    EXPECT_EQ(ids(q.dispatch(0)), (std::vector<std::int64_t>{1, 2}));
    q.submit(qj(3, 2, 100));
    q.submit(qj(4, 1, 50));
    return ids(q.dispatch(0));
  };
  // Id 1 frees 1 core first: avail 2, no extra, 4 waits.
  EXPECT_TRUE(run(1, 3).empty());
  // Id 1 frees 3 cores first: avail 4, extra 2, 4 backfills.
  EXPECT_EQ(run(3, 1), (std::vector<std::int64_t>{4}));
}

namespace {

/// The EASY queue as it was before the running index: every blocked dispatch
/// copies the id-ordered running set and sorts it by expected end. The
/// stable sort makes its tie order (end, id) at every size.
class CopySortOracle {
 public:
  explicit CopySortOracle(int slots) : slots_(slots) {}

  void submit(const econ::QueuedJob& job) { queue_.push_back(job); }

  bool cancel(std::int64_t id) {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->id == id) {
        queue_.erase(it);
        return true;
      }
    }
    return false;
  }

  bool finish(std::int64_t id) {
    auto it = running_.find(id);
    if (it == running_.end()) return false;
    used_ -= it->second.first;
    running_.erase(it);
    return true;
  }

  std::vector<econ::StartedJob> dispatch(double now) {
    std::vector<econ::StartedJob> started;
    while (!queue_.empty() && tryStart(queue_.front(), now)) {
      started.push_back({queue_.front(), false});
      queue_.pop_front();
    }
    if (queue_.empty()) return started;
    const econ::QueuedJob& head = queue_.front();
    std::vector<std::pair<int, double>> by_end;  // (cpus, end), id order
    for (const auto& [id, r] : running_) by_end.push_back(r);
    std::stable_sort(by_end.begin(), by_end.end(),
                     [](const auto& a, const auto& b) { return a.second < b.second; });
    double shadow = now;
    int avail = slots_ - used_;
    for (std::size_t i = 0; avail < head.cpus && i < by_end.size(); ++i) {
      avail += by_end[i].first;
      shadow = by_end[i].second;
    }
    const int extra = std::max(0, avail - head.cpus);
    int scanned = 0;
    for (auto it = std::next(queue_.begin());
         it != queue_.end() && scanned < kWindow && used_ < slots_;) {
      ++scanned;
      const econ::QueuedJob& cand = *it;
      if (cand.cpus <= slots_ - used_ &&
          (now + cand.est_runtime_s <= shadow || cand.cpus <= extra)) {
        tryStart(cand, now);
        started.push_back({cand, true});
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    return started;
  }

  std::vector<std::int64_t> runningIds() const {
    std::vector<std::int64_t> out;
    for (const auto& [id, r] : running_) out.push_back(id);
    return out;
  }
  std::vector<std::int64_t> queuedIds() const {
    std::vector<std::int64_t> out;
    for (const auto& q : queue_) out.push_back(q.id);
    return out;
  }
  int used() const { return used_; }

  static constexpr int kWindow = econ::kBackfillWindow;

 private:
  bool tryStart(const econ::QueuedJob& job, double now) {
    if (used_ + job.cpus > slots_) return false;
    used_ += job.cpus;
    running_[job.id] = {job.cpus, now + job.est_runtime_s};
    return true;
  }

  int slots_;
  int used_ = 0;
  std::deque<econ::QueuedJob> queue_;
  std::map<std::int64_t, std::pair<int, double>> running_;  // id -> (cpus, end)
};

struct DifferentialStats {
  std::size_t peak_running = 0;
  int backfills = 0;
};

/// Seeded random submit/finish/cancel/dispatch against both queues.
DifferentialStats differentialRun(std::uint64_t seed, int slots, int max_cpus, int steps) {
  econ::BatchQueue::Options opt;
  opt.slots = slots;
  opt.policy = econ::QueuePolicy::EasyBackfill;
  econ::BatchQueue q(opt);
  CopySortOracle oracle(slots);
  std::mt19937_64 rng(seed);
  auto pick = [&rng](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  std::int64_t next_id = 1;
  double now = 0;
  DifferentialStats stats;
  for (int step = 0; step < steps; ++step) {
    const std::size_t op = pick(10);
    if (op < 5) {
      // Whole-second estimates on a whole-second clock: expected ends tie.
      const int cpus = 1 + static_cast<int>(pick(static_cast<std::size_t>(max_cpus)));
      const double est = static_cast<double>(1 + pick(8));
      const econ::QueuedJob job = qj(next_id++, cpus, est, now);
      q.submit(job);
      oracle.submit(job);
    } else if (op < 8) {
      const std::vector<std::int64_t> running = oracle.runningIds();
      if (!running.empty()) {
        const std::int64_t id = running[pick(running.size())];
        EXPECT_TRUE(q.finish(id));
        EXPECT_TRUE(oracle.finish(id));
      }
    } else if (op < 9) {
      const std::vector<std::int64_t> queued = oracle.queuedIds();
      if (!queued.empty()) {
        const std::int64_t id = queued[pick(queued.size())];
        EXPECT_TRUE(q.cancel(id));
        EXPECT_TRUE(oracle.cancel(id));
      }
    } else {
      now += static_cast<double>(pick(3));
    }
    const std::vector<econ::StartedJob> got = q.dispatch(now);
    const std::vector<econ::StartedJob> want = oracle.dispatch(now);
    EXPECT_EQ(ids(got), ids(want)) << "seed " << seed << " step " << step;
    for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
      EXPECT_EQ(got[i].backfilled, want[i].backfilled) << "seed " << seed << " step " << step;
      stats.backfills += got[i].backfilled ? 1 : 0;
    }
    EXPECT_EQ(q.freeSlots(), slots - oracle.used());
    EXPECT_EQ(static_cast<std::size_t>(q.depth()), oracle.queuedIds().size());
    EXPECT_EQ(static_cast<std::size_t>(q.runningCount()), oracle.runningIds().size());
    if (::testing::Test::HasFailure()) break;
    stats.peak_running = std::max(stats.peak_running, oracle.runningIds().size());
  }
  return stats;
}

}  // namespace

TEST(BatchQueue, EasyIndexMatchesCopyAndSortOracleUpTo16Running) {
  int backfills = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const DifferentialStats s = differentialRun(seed, /*slots=*/16, /*max_cpus=*/6, /*steps=*/400);
    EXPECT_LE(s.peak_running, 16u);
    backfills += s.backfills;
  }
  EXPECT_GT(backfills, 0);
}

TEST(BatchQueue, EasyIndexMatchesCopyAndSortOracleBeyond16Running) {
  std::size_t peak = 0;
  int backfills = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const DifferentialStats s = differentialRun(seed, /*slots=*/96, /*max_cpus=*/8, /*steps=*/600);
    peak = std::max(peak, s.peak_running);
    backfills += s.backfills;
  }
  EXPECT_GT(peak, 16u);  // past the size where std::sort is an insertion sort
  EXPECT_GT(backfills, 0);
}

// ----------------------------------------------------------------- broker --

namespace {

econ::ClusterView view(const std::string& name, int site, double price, double core_ops) {
  econ::ClusterView v;
  v.name = name;
  v.head_host = name + "-head";
  v.site = site;
  v.slots = 64;
  v.free_slots = 64;
  v.price_per_cpu_s = price;
  v.core_ops = core_ops;
  return v;
}

econ::Job brokeredJob() {
  econ::Job j;
  j.id = 1;
  j.cpus = 1;
  j.runtime_s = 100;  // at the 1e9 reference core
  j.est_runtime_s = 100;
  j.budget = 1e9;
  j.deadline_s = 1e9;
  return j;
}

}  // namespace

TEST(Broker, PoliciesPickDifferentClusters) {
  econ::Broker::Options opt;
  econ::Job job = brokeredJob();
  job.input_bytes = 1 << 20;
  job.data_site = 0;

  // "cheap" is slow but inexpensive; "fast" is 4x quicker at 10x the price.
  for (auto [policy, expect] :
       {std::pair{econ::BrokerPolicy::Cost, "cheap"},
        std::pair{econ::BrokerPolicy::Deadline, "fast"},
        std::pair{econ::BrokerPolicy::Locality, "cheap"}}) {
    opt.policy = policy;
    econ::Broker broker(opt);
    broker.updateView({view("cheap", 0, 0.1, 1e9), view("fast", 1, 1.0, 4e9)});
    const econ::Placement p = broker.place(job, 0);
    ASSERT_TRUE(p.placed) << econ::brokerPolicyName(policy);
    EXPECT_EQ(p.cluster, expect) << econ::brokerPolicyName(policy);
  }
}

TEST(Broker, BudgetInfeasibleJobsRejected) {
  econ::Broker broker({});
  broker.updateView({view("a", 0, 1.0, 1e9)});
  econ::Job job = brokeredJob();
  job.budget = 50;  // cheapest run costs 100
  const econ::Placement p = broker.place(job, 0);
  EXPECT_FALSE(p.placed);
  EXPECT_STREQ(p.reject_reason, "budget");

  econ::Job wide = brokeredJob();
  wide.cpus = 128;  // wider than any cluster
  const econ::Placement q = broker.place(wide, 0);
  EXPECT_FALSE(q.placed);
  EXPECT_STREQ(q.reject_reason, "no_fit");
}

TEST(Broker, GisRecordRoundTripAndTtlExpiry) {
  const gis::Dn base = gis::Dn::parse("ou=MicroGrid, o=Grid");
  gis::Directory dir;
  econ::ClusterView a = view("alpha", 2, 0.25, 2e9);
  a.free_slots = 17;
  a.queue_depth = 3;
  a.backlog_s = 12.5;
  dir.upsert(econ::makeQueueRecord(base, a));
  gis::Record dying = econ::makeQueueRecord(base, view("beta", 0, 1.0, 1e9));
  dying.set(gis::kAttrExpires, "5.0");
  dir.upsert(std::move(dying));

  econ::Broker broker({});
  broker.refreshFromGis(dir, base, 1.0);  // both records young
  ASSERT_EQ(broker.views().size(), 2u);
  const econ::ClusterView& round = broker.views().at("alpha");
  EXPECT_EQ(round.site, 2);
  EXPECT_EQ(round.slots, 64);
  EXPECT_EQ(round.free_slots, 17);
  EXPECT_EQ(round.queue_depth, 3);
  EXPECT_EQ(round.backlog_s, 12.5);
  EXPECT_EQ(round.price_per_cpu_s, 0.25);
  EXPECT_EQ(round.core_ops, 2e9);

  broker.refreshFromGis(dir, base, 6.0);  // beta's TTL has passed
  EXPECT_EQ(broker.views().size(), 1u);
  EXPECT_EQ(broker.views().count("beta"), 0u);
}

TEST(Broker, NoteScheduledDebitsTheCachedView) {
  econ::Broker broker({});
  broker.updateView({view("a", 0, 1.0, 1e9)});
  broker.noteScheduled("a", 10, 640);
  EXPECT_EQ(broker.views().at("a").free_slots, 54);
  EXPECT_GT(broker.views().at("a").backlog_s, 0);
  broker.noteDown("a");
  EXPECT_FALSE(broker.views().at("a").alive);
  EXPECT_FALSE(broker.place(brokeredJob(), 0).placed);  // dead views never place
}

// ------------------------------------------------------------- end-to-end --
// The small-economy fixture lives in test_scenarios.h, shared with the
// model-checking and determinism suites.

using mgtest::runEconomy;
using mgtest::smallGrid;
using mgtest::smallWorkload;

TEST(Economy, SmallRunCompletesEveryJobDeterministically) {
  const econ::EconReport a = runEconomy(smallGrid(), smallWorkload(400),
                                        econ::BrokerPolicy::Deadline);
  EXPECT_EQ(a.submitted, 400);
  EXPECT_EQ(a.completed + a.failed + a.rejected_budget + a.rejected_unplaceable, a.submitted);
  EXPECT_GT(a.completed, 0);
  EXPECT_GT(a.makespan_s, 0);
  EXPECT_GE(a.slowdown_p99, a.slowdown_p50);
  EXPECT_GT(a.fairness, 0);
  EXPECT_LE(a.fairness, 1.0 + 1e-9);
  EXPECT_LE(a.budget_spent, a.budget_offered);

  // Byte-identical rerun: same spec, fresh platform, identical report text.
  const econ::EconReport b = runEconomy(smallGrid(), smallWorkload(400),
                                        econ::BrokerPolicy::Deadline);
  EXPECT_EQ(a.render(), b.render());
}

TEST(Economy, TimeSharedClustersStretchButComplete) {
  econ::EconGridSpec g = smallGrid();
  g.timeshared_every = 1;  // every cluster processor-shares
  const econ::EconReport r = runEconomy(g, smallWorkload(200), econ::BrokerPolicy::Deadline);
  EXPECT_EQ(r.completed + r.failed + r.rejected_budget + r.rejected_unplaceable, r.submitted);
  EXPECT_GT(r.completed, 0);
}

TEST(Economy, PolicyChoiceMovesTheDeadlineMissRate) {
  // Load the grid enough that herding onto the cheap cluster hurts.
  econ::WorkloadSpec w = smallWorkload(600);
  w.rate = 0.5;
  const econ::EconReport cost = runEconomy(smallGrid(), w, econ::BrokerPolicy::Cost);
  const econ::EconReport deadline = runEconomy(smallGrid(), w, econ::BrokerPolicy::Deadline);
  EXPECT_EQ(cost.submitted, deadline.submitted);
  // Cost minimization spends less and misses more; deadline the reverse.
  EXPECT_LT(cost.budget_spent, deadline.budget_spent);
  EXPECT_GT(cost.deadline_misses, deadline.deadline_misses);
}

TEST(Economy, ClusterCrashResubmitsInFlightJobs) {
  const econ::EconReport r = runEconomy(smallGrid(), smallWorkload(400),
                                        econ::BrokerPolicy::Deadline,
                                        /*crash_at=*/120, /*restart_at=*/400);
  // Nothing is lost: every submitted job is accounted for, and the crash
  // forced at least one broker-level resubmission.
  EXPECT_EQ(r.completed + r.failed + r.rejected_budget + r.rejected_unplaceable, r.submitted);
  EXPECT_GT(r.resubmits, 0);
}

TEST(Economy, DataStagingNeverFallsBackToTheHeap) {
  // Every stage-in is a flow whose completion tail is an EventFn; it must fit
  // the inline buffer (one span id, not an id plus an ownership flag).
  const econ::EconGrid grid = econ::makeEconGrid(smallGrid());
  core::MicroGridOptions mopts;
  mopts.netmodel = net::NetModelKind::Flow;
  mopts.rate_override = 1.0;
  core::MicroGridPlatform platform(grid.grid, mopts);
  econ::EconOptions eopts;
  eopts.workload = smallWorkload(200);
  econ::GridEconomy economy(platform, grid, eopts);
  economy.arm();
  platform.run();
  EXPECT_GT(economy.report().transfers, 0);
  EXPECT_EQ(platform.simulator().metrics().counterValue("sim.kernel.eventfn_heap_fallbacks"), 0);
}

TEST(Economy, GridGeneratorShapesAndPolicyParse) {
  const econ::EconGrid grid = econ::makeEconGrid(smallGrid());
  ASSERT_EQ(grid.clusters.size(), 2u);
  EXPECT_EQ(grid.clusters[0].slots, 8);
  EXPECT_LT(grid.clusters[0].core_ops, grid.clusters[1].core_ops);  // speed tiers
  EXPECT_LT(grid.clusters[0].price_per_cpu_s, grid.clusters[1].price_per_cpu_s);
  // Per-unit-of-work cost must *rise* with speed or Cost vs Deadline collapse.
  EXPECT_LT(grid.clusters[0].price_per_cpu_s / (grid.clusters[0].core_ops / 1e9),
            grid.clusters[1].price_per_cpu_s / (grid.clusters[1].core_ops / 1e9));

  EXPECT_EQ(econ::parseBrokerPolicy("cost"), econ::BrokerPolicy::Cost);
  EXPECT_EQ(econ::parseBrokerPolicy("deadline"), econ::BrokerPolicy::Deadline);
  EXPECT_EQ(econ::parseBrokerPolicy("locality"), econ::BrokerPolicy::Locality);
  EXPECT_THROW(econ::parseBrokerPolicy("vibes"), mg::ConfigError);
}
