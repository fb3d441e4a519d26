// Model-checking subsystem tests: state identity by deterministic replay,
// the fault-schedule explorer (enumeration, causal reduction, state-hash
// pruning, budget, spec parsing), and the invariant surface. The seeded
// mutation check lives in mc_mutation_test.cpp — it needs MG_MC_MUTATION set
// before the injector caches the flag, so it runs in its own process.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "mc/explorer.h"
#include "mc/invariants.h"
#include "mc/scenario.h"
#include "npb/npb.h"
#include "util/config.h"
#include "util/error.h"

#include "test_scenarios.h"

using namespace mg;

namespace {

fault::FaultPlan outagePlan() {
  fault::FaultPlan plan;
  plan.add(mgtest::simpleEvent(fault::FaultKind::LinkDown, "eth1", 0.01, 0.02));
  return plan;
}

/// Candidate menu sized so assignments alone reach 5 * 5 * 4 = 100 schedules
/// (shared times add same-time orderings on top). All three faults leave the
/// vm1 -> vm0 transfer completable: transient link faults recover through
/// TCP retransmission, and vm3 is a bystander.
std::vector<mc::CandidateFault> transferCandidates() {
  std::vector<mc::CandidateFault> out;

  mc::CandidateFault drop;
  drop.event = mgtest::simpleEvent(fault::FaultKind::LinkDown, "eth1", 0.01, 0.02);
  drop.event.name = "drop-eth1";
  drop.times = {0.005, 0.01, 0.015, 0.02};
  out.push_back(drop);

  mc::CandidateFault lossy;
  lossy.event = mgtest::simpleEvent(fault::FaultKind::LinkDegrade, "eth0", 0.01, 0.03);
  lossy.event.name = "lossy-eth0";
  lossy.event.loss = 0.05;
  lossy.times = {0.005, 0.01, 0.015, 0.02};
  out.push_back(lossy);

  mc::CandidateFault crash;
  crash.event = mgtest::simpleEvent(fault::FaultKind::HostCrash, "vm3.ucsd.edu", 0.01, 0.05);
  crash.event.name = "crash-vm3";
  crash.times = {0.005, 0.01, 0.015};
  out.push_back(crash);

  // A mandatory late decision point, well after the transfer is done and the
  // bystander crash has healed: schedules whose prefixes differ only in the
  // crash timing have converged to byte-identical state by t=0.5, so the
  // state-hash memo prunes their tails (what the reduction test asserts).
  mc::CandidateFault late;
  late.event = mgtest::simpleEvent(fault::FaultKind::LinkDown, "eth3", 0.5, 0.01);
  late.event.name = "late-eth3";
  late.times = {0.5};
  late.optional = false;
  out.push_back(late);

  return out;
}

/// The final digests named by mgtest::branchOutcomes() lines.
std::set<std::string> finalDigests(const std::vector<std::string>& outcomes) {
  std::set<std::string> out;
  for (const std::string& s : outcomes) out.insert(s.substr(s.rfind(" digest=") + 8));
  return out;
}

/// The examples/grids/alpha4_explore.ini menu over NPB EP class S on the
/// Alpha preset, with or without hash pruning. The preset lists its nodes in
/// another order than examples/grids/alpha4.ini, so its branch log matches
/// `mgrun --explore`'s line for line except the digest values.
mc::ExploreResult exploreAlphaEp(bool hash_pruning) {
  mc::Explorer::Spec spec = mc::Explorer::parseSpec(
      util::Config::parseFile(MG_SOURCE_DIR "/examples/grids/alpha4_explore.ini"));
  npb::ResultSink sink;
  mc::LauncherScenarioSpec lspec;
  lspec.grid = core::topologies::alphaCluster();
  lspec.config_name = "mgrun";
  lspec.executable = "npb.ep";
  lspec.arguments = "S";
  lspec.parts = {{"vm0.ucsd.edu", 1}, {"vm1.ucsd.edu", 1}};
  lspec.max_resubmits = 2;
  lspec.registrar = [&sink](grid::ExecutableRegistry& r) { npb::registerNpb(r, sink); };
  spec.options.hash_pruning = hash_pruning;
  mc::Explorer ex(mc::launcherScenario(std::move(lspec)), spec.candidates, spec.options);
  return ex.explore();
}

}  // namespace

// ---------------------------------------------------------------- snapshot --
// A state is revisited by rebuilding through the factory and replaying to
// its virtual time; digest() is its identity (DESIGN.md §11).

TEST(McSnapshot, ReplayToOneTimeReproducesTheDigest) {
  const auto factory = mc::transferScenario();
  const fault::FaultPlan plan = outagePlan();

  auto run = factory(plan);
  auto replay = factory(plan);
  const double t = run->runTo(0.015);  // mid-transfer, outage in progress
  EXPECT_EQ(replay->runTo(t), t);
  EXPECT_EQ(replay->digest(), run->digest());

  // The replay is a full replacement, not just digest-equal at the pause
  // point: driven to the end, both runs land on the same state.
  run->runToEnd();
  replay->runToEnd();
  EXPECT_EQ(run->digest(), replay->digest());
  EXPECT_EQ(run->units_completed(), 1);
  EXPECT_EQ(replay->units_completed(), 1);
}

TEST(McSnapshot, FreshRunsFromEqualPlansAreByteIdentical) {
  const auto factory = mc::transferScenario();
  const fault::FaultPlan plan = outagePlan();
  auto a = factory(plan);
  auto b = factory(plan);
  a->runToEnd();
  b->runToEnd();
  EXPECT_EQ(a->digest(), b->digest());
}

TEST(McSnapshot, DifferentPlanDivergesAtThePausePoint) {
  const auto factory = mc::transferScenario();
  auto faulted = factory(outagePlan());
  auto clean = factory(fault::FaultPlan{});
  const double t = faulted->runTo(0.015);  // the outage is in progress
  clean->runTo(t);
  EXPECT_NE(faulted->digest(), clean->digest());
}

TEST(McSnapshot, DigestChangesAsTheRunProgresses) {
  const auto factory = mc::transferScenario();
  auto run = factory(fault::FaultPlan{});
  run->runTo(0.005);
  const std::uint64_t early = run->digest();
  run->runToEnd();
  EXPECT_NE(early, run->digest());
}

TEST(McSnapshot, CountersAreHistoryNotState) {
  // A digest folds state, not history: a counter only records what
  // happened, so registering and bumping one must leave the digest alone.
  auto run = mc::transferScenario()(outagePlan());
  run->runTo(0.015);
  const std::uint64_t before = run->digest();
  run->platform->simulator().metrics().counter("test.extra").inc();
  EXPECT_EQ(run->digest(), before);
}

// -------------------------------------------------------------- invariants --

TEST(McInvariants, CleanAndFaultedTransfersHoldEveryInvariant) {
  const auto factory = mc::transferScenario();
  for (const fault::FaultPlan& plan : {fault::FaultPlan{}, outagePlan()}) {
    auto run = factory(plan);
    run->runToEnd();
    const auto vs = mc::checkInvariants(*run);
    EXPECT_TRUE(vs.empty()) << mc::renderViolations(vs);
  }
}

TEST(McInvariants, LostWorkIsReportedAsViolation) {
  const auto factory = mc::transferScenario();
  auto run = factory(fault::FaultPlan{});
  // Sabotage the accounting rather than the simulator: claim two units were
  // expected. The checker must flag the missing one.
  run->units_expected = 2;
  run->runToEnd();
  const auto vs = mc::checkInvariants(*run);
  ASSERT_FALSE(vs.empty());
  EXPECT_EQ(vs[0].invariant, "workload.lost");
  EXPECT_NE(mc::renderViolations(vs).find("workload.lost"), std::string::npos);
}

// ---------------------------------------------------------------- explorer --

TEST(McExplorer, EnumeratesOverHundredSchedulesDeterministically) {
  mc::ExploreOptions opts;
  auto once = [&] {
    mc::Explorer ex(mc::transferScenario(), transferCandidates(), opts);
    return ex.explore();
  };
  const mc::ExploreResult a = once();
  EXPECT_GE(a.stats.enumerated, 100);
  EXPECT_GT(a.stats.runs, 0);
  EXPECT_EQ(a.stats.violations, 0);
  EXPECT_FALSE(a.violation_found);
  EXPECT_EQ(static_cast<std::int64_t>(a.branch_log.size()), a.stats.enumerated);

  // The explorer's own determinism gate: a second exploration produces a
  // byte-identical branch log, pruning decisions included.
  const mc::ExploreResult b = once();
  EXPECT_EQ(a.branch_log, b.branch_log);
  EXPECT_EQ(a.stats.enumerated, b.stats.enumerated);
  EXPECT_EQ(a.stats.pruned_hash, b.stats.pruned_hash);
  EXPECT_EQ(a.stats.pruned_causal, b.stats.pruned_causal);
}

TEST(McExplorer, ReductionsPruneWithoutChangingTheVerdict) {
  auto explore = [](bool hash, bool causal) {
    mc::ExploreOptions opts;
    opts.hash_pruning = hash;
    opts.causal_reduction = causal;
    mc::Explorer ex(mc::transferScenario(), transferCandidates(), opts);
    return ex.explore();
  };
  const mc::ExploreResult reduced = explore(true, true);
  const mc::ExploreResult full = explore(false, false);
  // Soundness: pruning must never manufacture or hide a violation.
  EXPECT_EQ(reduced.stats.violations, 0);
  EXPECT_EQ(full.stats.violations, 0);
  // The reductions actually bite on this menu (shared times, a bystander
  // crash independent of both link faults).
  EXPECT_GT(reduced.stats.pruned_hash, 0);
  EXPECT_GT(reduced.stats.pruned_causal, 0);
  EXPECT_EQ(full.stats.pruned_hash, 0);
  EXPECT_EQ(full.stats.pruned_causal, 0);
  // Without causal reduction every ordering is enumerated separately.
  EXPECT_GE(full.stats.enumerated, reduced.stats.enumerated);
  // Hash pruning only truncates replays; every enumerated schedule of the
  // reduced run still appears in its branch log.
  EXPECT_EQ(static_cast<std::int64_t>(reduced.branch_log.size()), reduced.stats.enumerated);
}

TEST(McExplorer, AlphaEpExplorationCountsArePinned) {
  // Which states compare equal decides the pruning counts, so these exact
  // values pin the state digest. Layers fold state; history counters (which
  // link fault fired, how many events ran) do not separate two states.
  // Every candidate has healed by the quiescence time (crash-vm3 @ 1.5 s +
  // 1 s = 2.5 s), where all but 12 schedules meet a twin. Soundness is the
  // full-replay oracle's to guard (PrunedVerdictsMatchFullReplay): a fold
  // that merged states with different futures would fail it.
  const mc::ExploreResult r = exploreAlphaEp(/*hash_pruning=*/true);
  EXPECT_EQ(r.stats.enumerated, 115);
  EXPECT_EQ(r.stats.runs, 12);
  EXPECT_EQ(r.stats.pruned_hash, 103);
  EXPECT_EQ(r.stats.pruned_causal, 37);
  EXPECT_EQ(r.stats.violations, 0);
}

TEST(McExplorer, PrunedVerdictsMatchFullReplay) {
  // The oracle replays every schedule to the end. Each pruned branch's
  // inherited verdict, end time and final digest must be the one its own
  // replay would have reached.
  const mc::ExploreResult pruned = exploreAlphaEp(/*hash_pruning=*/true);
  const mc::ExploreResult full = exploreAlphaEp(/*hash_pruning=*/false);
  ASSERT_EQ(full.stats.runs, full.stats.enumerated);
  const auto got = mgtest::branchOutcomes(pruned.branch_log);
  const auto want = mgtest::branchOutcomes(full.branch_log);
  EXPECT_EQ(got, want);
  EXPECT_EQ(finalDigests(got).size(), 9u);
  EXPECT_EQ(finalDigests(got), finalDigests(want));
  EXPECT_EQ(pruned.stats.violations, full.stats.violations);
}

TEST(McExplorer, QuiescencePointNeverMovesADrainedRunsClock) {
  // The transfer finishes within ms; the optional crash puts the
  // quiescence time at 1 s + 0.5 s. A schedule that skips the crash drains
  // long before that, and stepping it on to 1.5 s would report that as its
  // end.
  std::vector<mc::CandidateFault> cands;
  mc::CandidateFault drop;
  drop.event = mgtest::simpleEvent(fault::FaultKind::LinkDown, "eth2", 0.005, 0.02);
  drop.event.name = "drop-eth2";
  drop.times = {0.005, 0.01};
  cands.push_back(drop);
  mc::CandidateFault crash;
  crash.event = mgtest::simpleEvent(fault::FaultKind::HostCrash, "vm3.ucsd.edu", 1.0, 0.5);
  crash.event.name = "crash-vm3";
  cands.push_back(crash);

  auto explore = [&](bool hash) {
    mc::ExploreOptions opts;
    opts.hash_pruning = hash;
    mc::Explorer ex(mc::transferScenario(), cands, opts);
    return ex.explore();
  };
  const mc::ExploreResult pruned = explore(true);
  const mc::ExploreResult full = explore(false);
  EXPECT_EQ(mgtest::branchOutcomes(pruned.branch_log),
            mgtest::branchOutcomes(full.branch_log));
  // Schedules differing only in the bystander link fault's timing meet at
  // the crash, with no hand-placed late decision point. (A transfer outlives
  // no fault, so its runs drain by T_q and are never pruned there.)
  EXPECT_GT(pruned.stats.pruned_hash, 0);
  EXPECT_EQ(pruned.stats.violations, 0);
}

TEST(McExplorer, BudgetCapsEnumeration) {
  mc::ExploreOptions opts;
  opts.budget = 7;
  mc::Explorer ex(mc::transferScenario(), transferCandidates(), opts);
  const mc::ExploreResult r = ex.explore();
  EXPECT_LE(r.stats.enumerated, 7);
}

TEST(McExplorer, RejectsNegativeCandidateTimes) {
  auto cands = transferCandidates();
  cands[0].times.push_back(-0.5);
  EXPECT_THROW(mc::Explorer(mc::transferScenario(), cands), Error);
}

// --------------------------------------------------------------- spec dialect

TEST(McExplorerSpec, ParsesOptionsAndCandidates) {
  const auto spec = mc::Explorer::parseSpec(util::Config::parse(R"(
[explore]
budget = 50
hash_pruning = false
causal_reduction = true

[candidate crash]
at = 1s
kind = host_crash
target = vm3.ucsd.edu
duration = 2s
times = 0.5s, 1s, 1.5s
optional = false

[candidate drop]
at = 0.3s
kind = link_down
target = eth1
duration = 100ms
)"));
  EXPECT_EQ(spec.options.budget, 50);
  EXPECT_FALSE(spec.options.hash_pruning);
  EXPECT_TRUE(spec.options.causal_reduction);
  ASSERT_EQ(spec.candidates.size(), 2u);
  EXPECT_EQ(spec.candidates[0].event.name, "crash");
  EXPECT_EQ(spec.candidates[0].event.kind, fault::FaultKind::HostCrash);
  EXPECT_FALSE(spec.candidates[0].optional);
  ASSERT_EQ(spec.candidates[0].times.size(), 3u);
  EXPECT_DOUBLE_EQ(spec.candidates[0].times[1], 1.0);
  // No `times` key: left empty here; the Explorer constructor collapses an
  // empty menu to the nominal `at`.
  EXPECT_TRUE(spec.candidates[1].optional);
  EXPECT_TRUE(spec.candidates[1].times.empty());
  EXPECT_DOUBLE_EQ(spec.candidates[1].event.at, 0.3);
}

TEST(McExplorerSpec, RejectsMalformedSpecs) {
  auto parse = [](const char* text) {
    return mc::Explorer::parseSpec(util::Config::parse(text));
  };
  // No candidates at all.
  EXPECT_THROW(parse("[explore]\nbudget = 5\n"), ConfigError);
  // Unknown [explore] key.
  EXPECT_THROW(parse("[explore]\nbudgett = 5\n"
                     "[candidate c]\nat = 1s\nkind = link_down\ntarget = eth0\n"),
               ConfigError);
  // Unknown candidate key (same policy as [fault ...] sections).
  EXPECT_THROW(parse("[candidate c]\nat = 1s\nkind = link_down\ntarget = eth0\ntimess = 1s\n"),
               ConfigError);
  // Duplicate candidate names would make branch signatures ambiguous.
  EXPECT_THROW(parse("[candidate c]\nat = 1s\nkind = link_down\ntarget = eth0\n"
                     "[candidate c]\nat = 2s\nkind = link_down\ntarget = eth1\n"),
               ConfigError);
}
