// The explorer's end-to-end bug-finding check, in its own process.
//
// MG_MC_MUTATION=1 arms a seeded bug in the fault injector: a host restart
// arriving less than 2 virtual seconds after the crash "forgets" to close
// the downtime interval, so the availability report claims the host is down
// at the horizon while the platform says it is alive. The injector reads the
// flag once (static), so this test sets it before the first restart fires —
// that is why it cannot share a binary with mc_test.
//
// The explorer must find the bug among schedules where nothing else is
// wrong, minimize the reproduction to the single guilty crash event, and
// emit a plan that replays the violation outside the explorer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "fault/fault_plan.h"
#include "mc/explorer.h"
#include "mc/invariants.h"
#include "mc/scenario.h"
#include "util/config.h"

#include "test_scenarios.h"

using namespace mg;

namespace {

/// The guilty crash plus an innocent link fault on the transfer scenario.
std::vector<mc::CandidateFault> mutationCandidates() {
  std::vector<mc::CandidateFault> cands;

  // The guilty candidate: crash + auto-restart 0.5 vs later — inside the
  // mutation's < 2 vs window, so every schedule that fires it violates
  // fault.availability.
  mc::CandidateFault crash;
  crash.event = mgtest::simpleEvent(fault::FaultKind::HostCrash, "vm3.ucsd.edu", 0.01, 0.5);
  crash.event.name = "crash-vm3";
  crash.times = {0.005, 0.01};
  cands.push_back(crash);

  // An innocent bystander fault the minimizer must strip away.
  mc::CandidateFault drop;
  drop.event = mgtest::simpleEvent(fault::FaultKind::LinkDown, "eth1", 0.01, 0.02);
  drop.event.name = "drop-eth1";
  drop.times = {0.005, 0.01};
  cands.push_back(drop);
  return cands;
}

}  // namespace

TEST(McMutation, ExplorerFindsMinimizesAndReplaysTheSeededBug) {
  ::setenv("MG_MC_MUTATION", "1", 1);

  const auto factory = mc::transferScenario();
  mc::Explorer ex(factory, mutationCandidates());
  const mc::ExploreResult r = ex.explore();

  ASSERT_TRUE(r.violation_found);
  EXPECT_GT(r.stats.violations, 0);
  EXPECT_NE(r.first_violation.find("fault.availability"), std::string::npos)
      << r.first_violation;

  // Delta-debugging stripped the schedule to the single guilty event.
  ASSERT_EQ(r.minimal_plan.size(), 1u);
  EXPECT_EQ(r.minimal_plan.events()[0].kind, fault::FaultKind::HostCrash);
  EXPECT_EQ(r.minimal_plan.events()[0].target, "vm3.ucsd.edu");

  // The minimal plan replays the violation outside the explorer...
  auto replay = factory(r.minimal_plan);
  replay->runToEnd();
  const auto vs = mc::checkInvariants(*replay);
  ASSERT_FALSE(vs.empty());
  EXPECT_EQ(vs[0].invariant, "fault.availability");

  // ...and survives the INI round trip mgrun's --faults flag would take.
  const auto reparsed =
      fault::FaultPlan::fromConfig(util::Config::parse(r.minimal_plan.toIni()));
  EXPECT_EQ(reparsed.events(), r.minimal_plan.events());
}

TEST(McMutation, PrunedVerdictsMatchFullReplay) {
  ::setenv("MG_MC_MUTATION", "1", 1);

  // The seeded-bug menu plus a fault on vm2's idle uplink whose two timings
  // converge before the crash, so violating branches are pruned there and
  // inherit their twin's verdict: the count, every verdict and the reported
  // first violation must match the full replay's.
  std::vector<mc::CandidateFault> cands = mutationCandidates();
  mc::CandidateFault idle;
  idle.event = mgtest::simpleEvent(fault::FaultKind::LinkDown, "eth2", 0.001, 0.001);
  idle.event.name = "drop-eth2";
  idle.times = {0.001, 0.002};
  cands.push_back(idle);
  auto explore = [&](bool hash) {
    mc::ExploreOptions opts;
    opts.hash_pruning = hash;
    mc::Explorer ex(mc::transferScenario(), cands, opts);
    return ex.explore();
  };
  const mc::ExploreResult pruned = explore(true);
  const mc::ExploreResult full = explore(false);
  const auto inherited = std::count_if(
      pruned.branch_log.begin(), pruned.branch_log.end(), [](const std::string& l) {
        return l.find(" pruned@") != std::string::npos &&
               l.find(" VIOLATION ") != std::string::npos;
      });
  EXPECT_GT(inherited, 0);
  EXPECT_EQ(mgtest::branchOutcomes(pruned.branch_log),
            mgtest::branchOutcomes(full.branch_log));
  EXPECT_EQ(pruned.stats.violations, full.stats.violations);
  EXPECT_EQ(pruned.first_violation, full.first_violation);
  EXPECT_EQ(pruned.minimal_plan.events(), full.minimal_plan.events());
}

TEST(McMutation, SchedulesWithoutTheRestartWindowStayClean) {
  // Same process (mutation armed), but no crash candidate: the link fault
  // alone violates nothing, proving the detector keys on the seeded bug and
  // not on exploration noise.
  const auto factory = mc::transferScenario();
  std::vector<mc::CandidateFault> cands;
  mc::CandidateFault drop;
  drop.event = mgtest::simpleEvent(fault::FaultKind::LinkDown, "eth1", 0.01, 0.02);
  drop.event.name = "drop-eth1";
  drop.times = {0.005, 0.01};
  cands.push_back(drop);

  mc::Explorer ex(factory, cands);
  const mc::ExploreResult r = ex.explore();
  EXPECT_EQ(r.stats.violations, 0);
  EXPECT_FALSE(r.violation_found);
}
