// Seed-sweep determinism: for every seed, two fresh runs of NPB EP under
// faults (a lossy link all run long plus a transient outage mid-run) must be
// byte-identical in every observable stream — metrics snapshot, span tree,
// and the application's own checksums. The fault-schedule explorer rebuilds
// each schedule through a scenario factory and replays it (mc/scenario.h),
// so it is built entirely on this property: a single seed where it breaks
// invalidates the whole subsystem.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "fault/fault_plan.h"

#include "test_scenarios.h"

using namespace mg;

namespace {

fault::FaultPlan sweepPlan() {
  fault::FaultPlan plan;
  plan.add(mgtest::lossyEth1(0.05, 60.0));  // stochastic drops, seed-driven
  plan.add(mgtest::simpleEvent(fault::FaultKind::LinkDown, "eth2", 0.5, 0.05));
  return plan;
}

}  // namespace

TEST(Determinism, SeedSweepEpUnderFaultsIsByteReproducible) {
  const fault::FaultPlan plan = sweepPlan();
  std::set<std::string> distinct_metrics;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto a = mgtest::runEpUnderFaults(plan, seed, /*spans=*/true);
    const auto b = mgtest::runEpUnderFaults(plan, seed, /*spans=*/true);
    EXPECT_EQ(a.metrics, b.metrics) << "metrics diverged at seed " << seed;
    ASSERT_FALSE(a.tree.empty());
    EXPECT_EQ(a.tree, b.tree) << "span tree diverged at seed " << seed;
    ASSERT_EQ(a.checksums.size(), 4u);
    EXPECT_EQ(a.checksums, b.checksums) << "checksums diverged at seed " << seed;
    // The lossy link really engaged: determinism is a statement about
    // stochastic state, not about a run the faults never touched.
    EXPECT_NE(a.metrics.find("\"net.packet.dropped_loss\":"), std::string::npos);
    distinct_metrics.insert(a.metrics);
  }
  // The seed genuinely feeds the packet-loss RNG stream: different seeds do
  // not all collapse onto one trajectory.
  EXPECT_GT(distinct_metrics.size(), 1u);
}
