// Fault-injection subsystem tests: plan parsing and validation, injector
// mechanics (auto-restore, partitions, availability accounting), network
// fault bookkeeping (drop counters, route recomputes), CPU-scheduler
// teardown on crash, and the end-to-end crash -> FAILED -> resubmit
// resilience path through the launcher.
#include <gtest/gtest.h>

#include "core/launcher.h"
#include "core/microgrid_platform.h"
#include "core/topologies.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "gis/directory.h"
#include "grid/gram.h"
#include "net/tcp.h"
#include "tcp_backlog.h"
#include "npb/npb.h"
#include "vmpi/comm.h"
#include "vos/cpu_scheduler.h"

#include "test_scenarios.h"

using namespace mg;
namespace st = mg::sim;

/// Runs `fn`, expecting a ConfigError whose message holds every fragment.
template <typename Fn>
void expectConfigErrorNaming(Fn fn, std::initializer_list<const char*> fragments) {
  try {
    fn();
    ADD_FAILURE() << "no ConfigError";
  } catch (const ConfigError& e) {
    for (const char* f : fragments) {
      EXPECT_NE(std::string(e.what()).find(f), std::string::npos) << e.what();
    }
  }
}

// ------------------------------------------------------------- FaultPlan --

TEST(FaultPlanTest, ParsesSortsAndFillsFields) {
  auto plan = fault::FaultPlan::fromConfig(util::Config::parse(R"(
[fault crash]
at = 2s
kind = host_crash
target = vm3.ucsd.edu
duration = 5s

[fault degrade]
at = 1s
kind = link_degrade
target = eth1
loss = 0.01
latency_mult = 4
bandwidth_mult = 0.5

[fault split]
at = 1s
kind = partition
nodes = vm0.ucsd.edu, vm1.ucsd.edu
)"));
  ASSERT_EQ(plan.size(), 3u);
  // Sorted by `at`; same-time events keep file order (degrade before split).
  EXPECT_EQ(plan.events()[0].name, "degrade");
  EXPECT_EQ(plan.events()[1].name, "split");
  EXPECT_EQ(plan.events()[2].name, "crash");

  const fault::FaultEvent& degrade = plan.events()[0];
  EXPECT_EQ(degrade.kind, fault::FaultKind::LinkDegrade);
  EXPECT_EQ(degrade.target, "eth1");
  EXPECT_DOUBLE_EQ(degrade.loss, 0.01);
  EXPECT_DOUBLE_EQ(degrade.latency_mult, 4.0);
  EXPECT_DOUBLE_EQ(degrade.bandwidth_mult, 0.5);
  EXPECT_DOUBLE_EQ(degrade.duration, 0.0);

  const fault::FaultEvent& split = plan.events()[1];
  ASSERT_EQ(split.nodes.size(), 2u);
  EXPECT_EQ(split.nodes[0], "vm0.ucsd.edu");
  EXPECT_EQ(split.nodes[1], "vm1.ucsd.edu");

  const fault::FaultEvent& crash = plan.events()[2];
  EXPECT_EQ(crash.kind, fault::FaultKind::HostCrash);
  EXPECT_DOUBLE_EQ(crash.duration, 5.0);
}

TEST(FaultPlanTest, RejectsInvalidSections) {
  auto parse = [](const char* text) { return fault::FaultPlan::fromConfig(util::Config::parse(text)); };
  // Unknown kind.
  EXPECT_THROW(parse("[fault f]\nat = 1s\nkind = meteor\ntarget = eth0\n"), ConfigError);
  // Link faults need a target.
  EXPECT_THROW(parse("[fault f]\nat = 1s\nkind = link_down\n"), mg::Error);
  // A partition needs its node set.
  EXPECT_THROW(parse("[fault f]\nat = 1s\nkind = partition\n"), ConfigError);
  // heal is not restorable, so it cannot take a duration.
  EXPECT_THROW(parse("[fault f]\nat = 1s\nkind = heal\nduration = 2s\n"), ConfigError);
  // Brownout factor must be in (0, 1].
  EXPECT_THROW(
      parse("[fault f]\nat = 1s\nkind = cpu_brownout\ntarget = h\nfactor = 1.5\n"),
      ConfigError);
  // A degrade that changes nothing is a config mistake.
  EXPECT_THROW(parse("[fault f]\nat = 1s\nkind = link_degrade\ntarget = eth0\n"), ConfigError);
  // Time must be non-negative.
  EXPECT_THROW(parse("[fault f]\nat = -1s\nkind = link_down\ntarget = eth0\n"), mg::Error);
  // NaN fails every comparison, so it would pass the range checks above;
  // the number and unit parsers reject it (and inf) first.
  EXPECT_THROW(parse("[fault f]\nat = 1s\nkind = cpu_brownout\ntarget = h\nfactor = nan\n"),
               ConfigError);
  EXPECT_THROW(parse("[fault f]\nat = 1s\nkind = cpu_brownout\ntarget = h\nfactor = inf\n"),
               ConfigError);
  EXPECT_THROW(parse("[fault f]\nat = 1s\nkind = link_degrade\ntarget = eth0\nloss = nan\n"),
               ConfigError);
  EXPECT_THROW(parse("[fault f]\nat = nan\nkind = link_down\ntarget = eth0\n"), mg::ParseError);
  EXPECT_THROW(parse("[fault f]\nat = 1s\nkind = host_crash\ntarget = h\nduration = inf\n"),
               mg::ParseError);
}

TEST(FaultPlanTest, MergeKeepsStableTimeOrder) {
  auto mk = [](double at, const char* name) {
    fault::FaultEvent ev;
    ev.at = at;
    ev.name = name;
    ev.kind = fault::FaultKind::LinkDown;
    ev.target = "eth0";
    return ev;
  };
  fault::FaultPlan a;
  a.add(mk(1.0, "a1"));
  a.add(mk(3.0, "a2"));
  fault::FaultPlan b;
  b.add(mk(1.0, "b1"));
  b.add(mk(2.0, "b2"));
  a.merge(b);
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a.events()[0].name, "a1");  // ties break toward the earlier plan
  EXPECT_EQ(a.events()[1].name, "b1");
  EXPECT_EQ(a.events()[2].name, "b2");
  EXPECT_EQ(a.events()[3].name, "a2");
}

TEST(FaultPlanTest, UnknownKeysRejectedNamingKeyAndAcceptedSet) {
  // A misspelled `duration` must not silently yield a permanent fault; the
  // message names the offending key AND lists what the kind accepts.
  try {
    fault::FaultPlan::fromConfig(util::Config::parse(
        "[fault f]\nat = 1s\nkind = link_down\ntarget = eth0\ndurration = 5s\n"));
    FAIL() << "stray key was accepted";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("durration"), std::string::npos) << msg;
    EXPECT_NE(msg.find("accepted"), std::string::npos) << msg;
    EXPECT_NE(msg.find("duration"), std::string::npos) << msg;
  }
  // Keys valid for one kind are still rejected for another (loss is a
  // link_degrade knob, not a link_down one).
  EXPECT_THROW(fault::FaultPlan::fromConfig(util::Config::parse(
                   "[fault f]\nat = 1s\nkind = link_down\ntarget = eth0\nloss = 0.5\n")),
               ConfigError);
}

TEST(FaultPlanTest, DuplicateTimestampsKeepFileOrderThroughIniRoundTrip) {
  const char* ini = R"(
[fault second]
at = 1s
kind = link_down
target = eth1

[fault first]
at = 0.5s
kind = link_down
target = eth0

[fault also-at-1]
at = 1s
kind = host_crash
target = vm3.ucsd.edu
)";
  const auto plan = fault::FaultPlan::fromConfig(util::Config::parse(ini));
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.events()[0].name, "first");
  EXPECT_EQ(plan.events()[1].name, "second");     // same-time: file order
  EXPECT_EQ(plan.events()[2].name, "also-at-1");

  // toIni() serializes schedule order; reparsing reproduces the plan
  // exactly, duplicate timestamps included (the explorer's minimal
  // reproductions depend on this being lossless).
  const auto reparsed = fault::FaultPlan::fromConfig(util::Config::parse(plan.toIni()));
  EXPECT_EQ(reparsed.events(), plan.events());
}

TEST(FaultPlanTest, EmptyPlanRoundTripsToEmpty) {
  const fault::FaultPlan empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.toIni(), "");
  const auto reparsed = fault::FaultPlan::fromConfig(util::Config::parse(""));
  EXPECT_TRUE(reparsed.empty());
  EXPECT_EQ(reparsed.events(), empty.events());
}

TEST(FaultPlanTest, EveryKindRoundTripsThroughIni) {
  fault::FaultPlan plan;
  plan.add(mgtest::crashVm3(2.0, 5.0));
  plan.add(mgtest::lossyEth1(0.02, 10.0, 1.0));
  fault::FaultEvent part;
  part.at = 3.0;
  part.kind = fault::FaultKind::Partition;
  part.name = "split";
  part.nodes = {"vm0.ucsd.edu", "vm1.ucsd.edu"};
  plan.add(part);
  fault::FaultEvent mend;
  mend.at = 4.0;
  mend.kind = fault::FaultKind::Heal;
  mend.name = "mend";
  mend.target = "split";
  plan.add(mend);
  fault::FaultEvent brown;
  brown.at = 5.0;
  brown.kind = fault::FaultKind::CpuBrownout;
  brown.name = "brown";
  brown.target = "vm0.ucsd.edu";
  brown.factor = 0.25;
  brown.duration = 2.0;
  plan.add(brown);
  fault::FaultEvent down = mgtest::simpleEvent(fault::FaultKind::LinkDown, "eth2", 6.0);
  down.name = "down";
  plan.add(down);
  fault::FaultEvent up = mgtest::simpleEvent(fault::FaultKind::LinkUp, "eth2", 7.0);
  up.name = "up";
  plan.add(up);
  fault::FaultEvent restart = mgtest::simpleEvent(fault::FaultKind::HostRestart, "vm3.ucsd.edu", 8.0);
  restart.name = "revive";
  plan.add(restart);

  const auto reparsed = fault::FaultPlan::fromConfig(util::Config::parse(plan.toIni()));
  EXPECT_EQ(reparsed.events(), plan.events());
}

// --------------------------------------------------------- FaultInjector --

using mgtest::simpleEvent;

TEST(FaultInjectorTest, ValidatesTargetsAgainstGrid) {
  core::MicroGridPlatform p(core::topologies::alphaCluster());

  fault::FaultPlan bad_link;
  bad_link.add(simpleEvent(fault::FaultKind::LinkDown, "no-such-link"));
  EXPECT_THROW(fault::FaultInjector(p, bad_link), ConfigError);

  fault::FaultPlan bad_host;
  bad_host.add(simpleEvent(fault::FaultKind::HostCrash, "ghost.ucsd.edu"));
  EXPECT_THROW(fault::FaultInjector(p, bad_host), ConfigError);

  fault::FaultPlan bad_node;
  fault::FaultEvent part = simpleEvent(fault::FaultKind::Partition, "");
  part.name = "split";
  part.nodes = {"vm0.ucsd.edu", "no-such-node"};
  bad_node.add(part);
  EXPECT_THROW(fault::FaultInjector(p, bad_node), ConfigError);

  fault::FaultPlan bad_heal;
  bad_heal.add(simpleEvent(fault::FaultKind::Heal, "never-partitioned"));
  EXPECT_THROW(fault::FaultInjector(p, bad_heal), ConfigError);

  fault::FaultPlan ok;
  ok.add(simpleEvent(fault::FaultKind::LinkDown, "eth0"));
  EXPECT_NO_THROW(fault::FaultInjector(p, ok));
}

TEST(FaultInjectorTest, FaultTimesBeyondTheKernelClockAreRejectedAtArm) {
  // At rate 0.9 a virtual second is 1/0.9 kernel seconds, and the kernel
  // clock (int64 ns) ends near 9.2e9 s. Beyond it the conversion used to
  // wrap: a crash at 1e10 s fired at t=0, and a 1e300 s restore failed
  // mid-run as a "negative delay".
  core::MicroGridOptions opts;
  opts.rate_override = 0.9;
  auto armed = [&](const fault::FaultEvent& ev) {
    core::MicroGridPlatform p(core::topologies::alphaCluster(), opts);
    fault::FaultPlan plan;
    plan.add(ev);
    fault::FaultInjector injector(p, std::move(plan));
    injector.arm();
  };
  fault::FaultEvent late = mgtest::simpleEvent(fault::FaultKind::HostCrash, "vm0.ucsd.edu", 1e10);
  late.name = "late";
  expectConfigErrorNaming([&] { armed(late); }, {"'late'", "at"});
  fault::FaultEvent forever =
      mgtest::simpleEvent(fault::FaultKind::HostCrash, "vm0.ucsd.edu", 1.0, 1e300);
  forever.name = "forever";
  expectConfigErrorNaming([&] { armed(forever); }, {"'forever'", "duration"});

  // 1e9 virtual seconds is ~1.1e9 kernel seconds: in range, and it fires then.
  core::MicroGridPlatform p(core::topologies::alphaCluster(), opts);
  fault::FaultPlan plan;
  plan.add(mgtest::simpleEvent(fault::FaultKind::HostCrash, "vm0.ucsd.edu", 1e9));
  fault::FaultInjector injector(p, std::move(plan));
  injector.arm();
  EXPECT_NEAR(p.run(), 1e9, 1e-3);
  EXPECT_FALSE(p.hostAlive("vm0.ucsd.edu"));
  EXPECT_EQ(injector.injected(), 1);
}

TEST(FaultInjectorTest, RegistersAllCountersUpFront) {
  core::MicroGridPlatform p(core::topologies::alphaCluster());
  fault::FaultInjector injector(p, fault::FaultPlan{});
  // The metrics registry's contents must not depend on which faults fire:
  // an empty plan still registers every fault.* instrument.
  const std::string json = p.simulator().metrics().snapshotJson();
  for (const char* name : {"fault.injected", "fault.link_down", "fault.link_up",
                           "fault.link_degrade", "fault.host_crash", "fault.host_restart",
                           "fault.cpu_brownout", "fault.partition", "fault.heal"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
  EXPECT_EQ(injector.injected(), 0);
}

TEST(FaultInjectorTest, LinkFlapAutoRestoresAndRecomputesOncePerChange) {
  core::MicroGridPlatform p(core::topologies::alphaCluster());
  const auto& m = p.simulator().metrics();
  const std::int64_t recomputes_before = m.counterValue("net.route.recomputes");

  fault::FaultPlan plan;
  plan.add(simpleEvent(fault::FaultKind::LinkDown, "eth0", 0.1, 0.2));
  fault::FaultInjector injector(p, std::move(plan));
  injector.arm();
  p.run();

  EXPECT_EQ(m.counterValue("fault.link_down"), 1);
  EXPECT_EQ(m.counterValue("fault.link_up"), 1);  // the auto-restore inverse
  EXPECT_EQ(injector.injected(), 2);
  // Exactly one Dijkstra rebuild per actual state change: down, then up.
  EXPECT_EQ(m.counterValue("net.route.recomputes") - recomputes_before, 2);
  const net::Topology& topo = p.network().topology();
  EXPECT_TRUE(topo.link(topo.findLink("eth0")).up);
}

TEST(FaultInjectorTest, PartitionThenHealRestoresEveryCutLink) {
  core::MicroGridPlatform p(core::topologies::alphaCluster());
  fault::FaultPlan plan;
  fault::FaultEvent part = simpleEvent(fault::FaultKind::Partition, "", 0.1, 0.3);
  part.name = "split";
  part.nodes = {"vm0.ucsd.edu", "vm1.ucsd.edu"};
  plan.add(part);
  fault::FaultInjector injector(p, std::move(plan));
  injector.arm();
  p.run();

  const auto& m = p.simulator().metrics();
  EXPECT_EQ(m.counterValue("fault.partition"), 1);
  EXPECT_EQ(m.counterValue("fault.heal"), 1);  // the auto-heal inverse
  const net::Topology& topo = p.network().topology();
  for (const char* link : {"eth0", "eth1", "eth2", "eth3"}) {
    EXPECT_TRUE(topo.link(topo.findLink(link)).up) << link;
  }
}

TEST(FaultInjectorTest, AvailabilityReportMath) {
  core::MicroGridPlatform p(core::topologies::alphaCluster());
  fault::FaultPlan plan;
  plan.add(simpleEvent(fault::FaultKind::HostCrash, "vm3.ucsd.edu", 1.0, 2.0));
  fault::FaultInjector injector(p, std::move(plan));
  injector.arm();
  p.run();

  const auto reports = injector.report(10.0);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].host, "vm3.ucsd.edu");
  EXPECT_EQ(reports[0].crashes, 1);
  EXPECT_NEAR(reports[0].downtime_seconds, 2.0, 1e-6);
  EXPECT_NEAR(reports[0].availability, 0.8, 1e-6);
  EXPECT_NEAR(reports[0].mttr_seconds, 2.0, 1e-6);
  EXPECT_NE(injector.renderReport(10.0).find("vm3.ucsd.edu"), std::string::npos);
}

// ------------------------------------------------- degenerate schedules --
//
// Regression tests for ISSUE 10: a fault event whose precondition already
// holds (crash a dead host, down a dead link, heal an intact fabric...) is
// *ignored* — counted in fault.ignored, logged, and crucially scheduling NO
// inverse event — instead of corrupting the availability accounting. The
// explorer composes arbitrary schedules, so every such edge must be inert.

TEST(FaultInjectorTest, DuplicateCrashOfDeadHostIsIgnoredWithoutPhantomRestart) {
  core::MicroGridPlatform p(core::topologies::alphaCluster());
  fault::FaultPlan plan;
  plan.add(simpleEvent(fault::FaultKind::HostCrash, "vm3.ucsd.edu", 0.1));  // permanent
  // The duplicate carries a duration; were it applied (or its inverse kept),
  // the dead host would "restart" at t=1.2 and availability would go negative.
  plan.add(simpleEvent(fault::FaultKind::HostCrash, "vm3.ucsd.edu", 0.2, 1.0));
  fault::FaultInjector injector(p, std::move(plan));
  injector.arm();
  p.run();

  EXPECT_EQ(injector.injected(), 1);
  EXPECT_EQ(injector.ignored(), 1);
  EXPECT_EQ(p.simulator().metrics().counterValue("fault.ignored"), 1);
  EXPECT_EQ(p.simulator().metrics().counterValue("fault.host_restart"), 0);
  EXPECT_FALSE(p.hostAlive("vm3.ucsd.edu"));
  const auto reports = injector.report(10.0);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].crashes, 1);
  EXPECT_TRUE(reports[0].down_at_horizon);
  EXPECT_NEAR(reports[0].downtime_seconds, 9.9, 1e-6);  // down from 0.1 on
}

TEST(FaultInjectorTest, RestartOfLiveHostAndBrownoutOfDeadHostAreIgnored) {
  core::MicroGridPlatform p(core::topologies::alphaCluster());
  fault::FaultPlan plan;
  plan.add(simpleEvent(fault::FaultKind::HostRestart, "vm0.ucsd.edu", 0.1));
  plan.add(simpleEvent(fault::FaultKind::HostCrash, "vm3.ucsd.edu", 0.2));
  fault::FaultEvent brown = simpleEvent(fault::FaultKind::CpuBrownout, "vm3.ucsd.edu", 0.3, 1.0);
  brown.factor = 0.5;
  plan.add(brown);  // host is dead: nothing to slow down
  fault::FaultInjector injector(p, std::move(plan));
  injector.arm();
  p.run();

  EXPECT_EQ(injector.injected(), 1);  // only the crash applied
  EXPECT_EQ(injector.ignored(), 2);
  EXPECT_TRUE(p.hostAlive("vm0.ucsd.edu"));
  EXPECT_FALSE(p.hostAlive("vm3.ucsd.edu"));
}

TEST(FaultInjectorTest, SameTimestampDuplicateLinkDownFiresOnceInFileOrder) {
  core::MicroGridPlatform p(core::topologies::alphaCluster());
  const net::Topology& topo = p.network().topology();
  fault::FaultPlan plan;
  plan.add(simpleEvent(fault::FaultKind::LinkUp, "eth1", 0.05));       // already up
  plan.add(simpleEvent(fault::FaultKind::LinkDown, "eth1", 0.1));      // applies
  plan.add(simpleEvent(fault::FaultKind::LinkDown, "eth1", 0.1, 5.0)); // same t: ignored
  fault::FaultInjector injector(p, std::move(plan));
  injector.arm();
  p.run();

  EXPECT_EQ(p.simulator().metrics().counterValue("fault.link_down"), 1);
  EXPECT_EQ(injector.ignored(), 2);
  // The ignored duplicate scheduled no auto-restore: the link stays down.
  EXPECT_EQ(p.simulator().metrics().counterValue("fault.link_up"), 0);
  EXPECT_FALSE(topo.link(topo.findLink("eth1")).up);
}

TEST(FaultInjectorTest, EmptyCutPartitionAndHealOfNothingAreIgnored) {
  core::MicroGridPlatform p(core::topologies::alphaCluster());
  fault::FaultPlan plan;
  fault::FaultEvent first = simpleEvent(fault::FaultKind::Partition, "", 0.1);
  first.name = "split";
  first.nodes = {"vm0.ucsd.edu"};
  plan.add(first);
  // Same node set again: every crossing link is already down, the cut is
  // empty — ignored, and (critically) no partitions_ entry is created that a
  // later heal would "mend" by re-raising links the first partition owns.
  fault::FaultEvent again = first;
  again.name = "split2";
  again.at = 0.2;
  plan.add(again);
  fault::FaultEvent mend = simpleEvent(fault::FaultKind::Heal, "split2", 0.3);
  plan.add(mend);  // names the empty-cut partition: nothing to heal
  fault::FaultInjector injector(p, std::move(plan));
  injector.arm();
  p.run();

  const auto& m = p.simulator().metrics();
  EXPECT_EQ(m.counterValue("fault.partition"), 1);
  EXPECT_EQ(m.counterValue("fault.heal"), 0);
  EXPECT_EQ(injector.ignored(), 2);
  const net::Topology& topo = p.network().topology();
  EXPECT_FALSE(topo.link(topo.findLink("eth0")).up);  // still partitioned

  // A heal against an untouched platform is equally inert.
  core::MicroGridPlatform q(core::topologies::alphaCluster());
  fault::FaultPlan heal_nothing;
  heal_nothing.add(simpleEvent(fault::FaultKind::Heal, "", 0.1));
  fault::FaultInjector inert(q, std::move(heal_nothing));
  inert.arm();
  q.run();
  EXPECT_EQ(inert.injected(), 0);
  EXPECT_EQ(inert.ignored(), 1);
}

TEST(FaultInjectorTest, IgnoredEventsAreByteDeterministic) {
  auto run = [] {
    core::MicroGridPlatform p(core::topologies::alphaCluster());
    fault::FaultPlan plan;
    plan.add(simpleEvent(fault::FaultKind::HostCrash, "vm3.ucsd.edu", 0.1));
    plan.add(simpleEvent(fault::FaultKind::HostCrash, "vm3.ucsd.edu", 0.2, 1.0));
    plan.add(simpleEvent(fault::FaultKind::LinkUp, "eth2", 0.3));
    fault::FaultInjector injector(p, std::move(plan));
    injector.arm();
    p.run();
    return p.simulator().metrics().snapshotJson() + injector.renderReport(5.0);
  };
  EXPECT_EQ(run(), run());
}

TEST(FaultInjectorTest, ScheduledFaultsNeverFallBackToTheHeap) {
  // The plan of examples/grids/alpha4_faults.ini: one fault of each kind
  // that schedules an inverse (plain and the degrade restore closure).
  // Scheduled fault closures hold indices, so each fits EventFn inline.
  const fault::FaultPlan plan = fault::FaultPlan::fromConfig(util::Config::parse(
      "[fault eth1-degrade]\nat = 1s\nkind = link_degrade\ntarget = eth1\nloss = 0.01\n"
      "latency_mult = 4\nbandwidth_mult = 0.5\nduration = 6s\n"
      "[fault vm3-crash]\nat = 2s\nkind = host_crash\ntarget = vm3.ucsd.edu\nduration = 5s\n"
      "[fault vm0-brownout]\nat = 3s\nkind = cpu_brownout\ntarget = vm0.ucsd.edu\n"
      "factor = 0.5\nduration = 4s\n"));
  mgtest::LauncherHarness h;
  h.registry.add("idle", [](grid::JobContext& jc) {
    jc.os.sleep(8.0);  // outlasts every fault and its inverse
    return 0;
  });
  const fault::FaultInjector& injector = h.armFaults(plan);
  const core::LaunchResult r = h.launcher.run("idle", "", mgtest::LauncherHarness::fourRanks());
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(injector.injected(), 6);  // three faults and their three inverses
  EXPECT_EQ(h.platform.simulator().metrics().counterValue("sim.kernel.eventfn_heap_fallbacks"),
            0);
}

// -------------------------------------------------- network fault detail --

TEST(NetFaults, RecomputeExactlyOncePerLinkStateChange) {
  st::Simulator sim;
  net::Topology topo;
  auto a = topo.addHost("a");
  auto b = topo.addHost("b");
  auto r = topo.addRouter("r");
  net::LinkId direct = topo.addLink("direct", a, b, 100e6, st::fromSeconds(1e-3));
  topo.addLink("backup1", a, r, 100e6, st::fromSeconds(5e-3));
  topo.addLink("backup2", r, b, 100e6, st::fromSeconds(5e-3));
  net::Network net(sim, std::move(topo), {});
  const auto& m = sim.metrics();

  const std::int64_t r0 = m.counterValue("net.route.recomputes");
  net.setLinkUp(direct, false);
  EXPECT_EQ(m.counterValue("net.route.recomputes") - r0, 1);
  net.setLinkUp(direct, false);  // same state: a no-op
  EXPECT_EQ(m.counterValue("net.route.recomputes") - r0, 1);
  net.setLinkUp(direct, true);
  EXPECT_EQ(m.counterValue("net.route.recomputes") - r0, 2);
}

TEST(NetFaults, InFlightPacketsDroppedOnLinkDownAreCounted) {
  st::Simulator sim;
  net::Topology topo;
  auto a = topo.addHost("a");
  auto b = topo.addHost("b");
  // Slow link: by the time it fails, TCP's window fills the queue, so the
  // outage catches packets in flight.
  net::LinkId only = topo.addLink("only", a, b, 10e6, st::fromSeconds(1e-3));
  net::Network net(sim, std::move(topo), {});
  net::TcpStack sa(net, a), sb(net, b);

  const size_t kSize = 256 * 1024;
  std::vector<std::uint8_t> data(kSize, 0x5a);
  std::vector<std::uint8_t> received(kSize);
  sim.spawn("server", [&] {
    auto listener = mgtest::listenOn(sb, 80);
    auto conn = listener->accept();
    conn->recvExact(received.data(), kSize);
  });
  sim.spawn("client", [&] {
    auto conn = sa.connect(b, 80);
    conn->send(data.data(), kSize);
    conn->close();
  });
  sim.spawn("flapper", [&] {
    sim.delay(50 * st::kMillisecond);  // mid-transfer: the queue is full
    net.setLinkUp(only, false);
    sim.delay(500 * st::kMillisecond);
    net.setLinkUp(only, true);
  });
  sim.run();
  EXPECT_EQ(received, data);  // TCP recovers the dropped packets
  const auto& m = sim.metrics();
  EXPECT_GT(m.counterValue("net.packet.drop_link_down"), 0);
  // The fault-specific sub-cause never exceeds the aggregate down counter.
  EXPECT_LE(m.counterValue("net.packet.drop_link_down"),
            m.counterValue("net.packet.dropped_down"));
}

// ------------------------------------------------------- scheduler crash --

TEST(SchedulerFaults, TaskKilledMidQuantumDoesNotLeakOrStall) {
  st::Simulator sim;
  vos::CpuScheduler sched(sim, 100e6, 10 * st::kMillisecond, {1.0, 1.0, 0.0});

  // Task a computes effectively forever; a saboteur kills its process in the
  // middle of one of its quanta (a's quanta start at even multiples of 10ms).
  // The dead slot must not stall b or keep charging credit.
  sim::Process& pa = sim.spawn("a", [&] {
    const auto id = sched.addTask("a", 0.5);
    struct Guard {
      vos::CpuScheduler& s;
      vos::CpuScheduler::TaskId id;
      ~Guard() { s.removeTask(id); }
    } guard{sched, id};
    sched.computeSeconds(id, 100.0);
  });
  double wall_b = -1;
  sim.spawn("b", [&] {
    const auto id = sched.addTask("b", 0.5);
    const st::SimTime t0 = sim.now();
    sched.computeSeconds(id, 1.0);
    wall_b = st::toSeconds(sim.now() - t0);
    sched.removeTask(id);
  });
  sim.spawn("saboteur", [&] {
    sim.delay(22500 * st::kMicrosecond);  // 2.5ms into a's third quantum
    sim.killProcess(pa);
  });
  sim.run();
  // b's 1 cpu-second at fraction 0.5 takes ~2s of wall time, crash or not.
  EXPECT_NEAR(wall_b, 2.0, 0.2);
  EXPECT_LT(st::toSeconds(sim.now()), 3.0);  // and the simulation drains
}

TEST(SchedulerFaults, HostCrashLeavesCoResidentHostUnaffected) {
  // Two virtual hosts time-share one physical machine; the victim's processes
  // are torn out of the shared scheduler mid-compute when its host crashes.
  // The survivor's pace is set by its own fraction, so its wall time must
  // match a crash-free run of the same workload.
  auto survivorWall = [](bool crash) {
    core::VirtualGridConfig cfg;
    cfg.addPhysical("p0", 533e6);
    cfg.addHost("a.grid", "10.0.0.1", 200e6, 1ll << 30, "p0");
    cfg.addHost("b.grid", "10.0.0.2", 200e6, 1ll << 30, "p0");
    cfg.addRouter("hub");
    cfg.addLink("la", "a.grid", "hub", 100e6, 1e-3);
    cfg.addLink("lb", "b.grid", "hub", 100e6, 1e-3);
    core::MicroGridPlatform p(cfg);
    double wall = -1;
    p.spawnOn("a.grid", "survivor", [&](vos::HostContext& ctx) {
      const double t0 = ctx.wallTime();
      ctx.compute(200e6);  // one virtual second of work
      wall = ctx.wallTime() - t0;
    });
    p.spawnOn("b.grid", "victim", [&](vos::HostContext& ctx) {
      ctx.compute(200e6 * 20);  // far outlasts the survivor
    });
    if (crash) {
      p.simulator().scheduleAfter(st::fromSeconds(0.1),
                                  [&p] { p.crashHost("b.grid"); });
    }
    p.run();
    EXPECT_GE(wall, 0.0);
    return wall;
  };
  const double with_crash = survivorWall(true);
  const double healthy = survivorWall(false);
  EXPECT_NEAR(with_crash, healthy, healthy * 0.02);
}

// ------------------------------------------------ middleware resilience --

TEST(Resilience, RecvThrowsWhenPeerHostCrashes) {
  core::topologies::AlphaClusterParams ap;
  ap.hosts = 2;
  core::MicroGridPlatform p(core::topologies::alphaCluster(ap));
  bool threw = false;
  bool rank0_done = false;
  p.spawnOn("vm0.ucsd.edu", "rank0", [&](vos::HostContext& ctx) {
    auto comm = vmpi::Comm::init(ctx, 0, {"vm0.ucsd.edu", "vm1.ucsd.edu"});
    ctx.sleep(10.0);  // never wakes: the host crashes first
    comm->finalize();
    rank0_done = true;
  });
  p.spawnOn("vm1.ucsd.edu", "rank1", [&](vos::HostContext& ctx) {
    auto comm = vmpi::Comm::init(ctx, 1, {"vm0.ucsd.edu", "vm1.ucsd.edu"});
    char buf[8];
    try {
      comm->recv(0, 7, buf, sizeof buf);  // must not block forever
    } catch (const mg::Error&) {
      threw = true;
    }
  });
  p.simulator().scheduleAfter(st::fromSeconds(1.0),
                              [&p] { p.crashHost("vm0.ucsd.edu"); });
  p.run();
  EXPECT_TRUE(threw);
  EXPECT_FALSE(rank0_done);
}

TEST(Resilience, GramRetriesUntilGatekeeperComesUp) {
  core::topologies::AlphaClusterParams ap;
  ap.hosts = 2;
  core::MicroGridPlatform p(core::topologies::alphaCluster(ap));
  grid::ExecutableRegistry registry;
  registry.add("noop", [](grid::JobContext&) { return 0; });
  p.spawnOn("vm1.ucsd.edu", "late-gatekeeper", [&](vos::HostContext& ctx) {
    ctx.sleep(1.5);  // the gatekeeper is down when the client first submits
    grid::serveGatekeeper(ctx, registry);
  });
  grid::JobStatus done;
  p.spawnOn("vm0.ucsd.edu", "client", [&](vos::HostContext& ctx) {
    grid::GramClient client(ctx);
    grid::GramRetryPolicy pol;
    pol.attempts = 8;
    pol.backoff_seconds = 0.25;
    client.setRetryPolicy(pol);
    grid::Rsl rsl;
    rsl.set("executable", "noop");
    rsl.set("count", "1");
    done = client.wait(client.submit("vm1.ucsd.edu", rsl));
  });
  p.run();
  EXPECT_EQ(done.state, grid::JobState::Done);
  EXPECT_GT(p.simulator().metrics().counterValue("grid.gram.retries"), 0);
}

TEST(Resilience, GisTtlExpiryReplacesDeadHostOnResubmit) {
  // A permanent crash (no restart): the host's GIS record is stamped with
  // Record_Expires, so the resubmission's re-placement search stops seeing
  // it and the part moves to a surviving host.
  auto cfg = core::topologies::alphaCluster();
  core::MicroGridPlatform platform(cfg);
  grid::ExecutableRegistry registry;
  std::set<std::string> ran_on;
  registry.add("worker", [&ran_on](grid::JobContext& jc) {
    ran_on.insert(jc.os.hostname());
    jc.os.sleep(1.0);
    return 0;
  });
  core::Launcher launcher(platform, registry);
  launcher.startServices(&cfg, "Alpha4");
  core::LaunchOptions lopts;
  lopts.max_resubmits = 3;
  launcher.setLaunchOptions(lopts);

  fault::FaultPlan plan;
  plan.add(simpleEvent(fault::FaultKind::HostCrash, "vm3.ucsd.edu", 0.5));  // forever
  fault::FaultInjector injector(platform, std::move(plan));
  injector.onHostCrash([&launcher](const std::string& h) { launcher.markHostDown(h); });
  injector.arm();

  const auto result =
      launcher.run("worker", "", {{"vm3.ucsd.edu", 1}}, {}, "vm0.ucsd.edu");
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_GE(result.resubmits, 1);
  // The retry ran somewhere that is not the dead host.
  EXPECT_GT(ran_on.size(), 0u);
  EXPECT_EQ(ran_on.count("vm3.ucsd.edu"), 1u);  // first attempt started there
  bool elsewhere = false;
  for (const auto& h : ran_on) elsewhere |= h != "vm3.ucsd.edu";
  EXPECT_TRUE(elsewhere);
}

TEST(Resilience, GisSearchExcludesExpiredRecords) {
  gis::Directory dir;
  gis::Record alive(gis::Dn::parse("hn=up.grid, o=Grid"));
  alive.set("objectclass", "GridComputeResource");
  gis::Record dying(gis::Dn::parse("hn=down.grid, o=Grid"));
  dying.set("objectclass", "GridComputeResource");
  dying.set(gis::kAttrExpires, "5.0");
  dir.add(alive);
  dir.add(dying);

  const gis::Dn base = gis::Dn::parse("o=Grid");
  const gis::Filter f = gis::Filter::parse("(objectclass=GridComputeResource)");
  EXPECT_EQ(dir.search(base, gis::Scope::Subtree, f, 4.0).size(), 2u);
  EXPECT_EQ(dir.search(base, gis::Scope::Subtree, f, 5.0).size(), 1u);  // at-or-past expiry
  EXPECT_EQ(dir.search(base, gis::Scope::Subtree, f).size(), 2u);  // no horizon: no expiry
  EXPECT_TRUE(gis::Directory::expired(dying, 6.0));
  EXPECT_FALSE(gis::Directory::expired(alive, 6.0));
}

// --------------------------------------------- end-to-end crash recovery --

namespace {

struct CrashRun {
  core::LaunchResult result;
  std::int64_t crashes = 0;
  std::int64_t restarts = 0;
  std::int64_t injected = 0;
  std::string metrics_json;
  std::string report;
  std::string span_tree;
  int aborted_spans = 0;        // spans closed by crashHost's abortTrack
  int aborted_still_open = 0;   // aborted spans that somehow stayed open
  int fault_instants = 0;       // instant markers from the injector
};

/// Run a four-rank chattering job on the Alpha cluster while vm3 crashes at
/// t=1vs and restarts at t=4vs. The first attempt must fail (peers see the
/// crash instead of hanging) and a resubmission must complete the job.
CrashRun runCrashResubmitScenario() {
  mgtest::HarnessOptions hopts;
  hopts.spans = true;
  mgtest::LauncherHarness h(hopts);
  h.registry.add("chatter", [](grid::JobContext& jc) {
    auto comm = vmpi::Comm::init(jc);
    for (int i = 0; i < 30; ++i) {
      comm->context().sleep(0.1);
      double v = 1;
      comm->allreduce(&v, 1, vmpi::Op::Sum);
      if (v != comm->size()) {
        comm->finalize();
        return 1;
      }
    }
    comm->finalize();
    return 0;
  });

  fault::FaultPlan plan;
  plan.add(mgtest::crashVm3(1.0, 3.0));
  fault::FaultInjector& injector = h.armFaults(std::move(plan));

  CrashRun out;
  out.result = h.launcher.run("chatter", "", mgtest::LauncherHarness::fourRanks());
  const auto& m = h.platform.simulator().metrics();
  out.crashes = m.counterValue("fault.host_crash");
  out.restarts = m.counterValue("fault.host_restart");
  out.injected = m.counterValue("fault.injected");
  out.metrics_json = m.snapshotJson();
  out.report = injector.renderReport();
  const auto& spans = h.platform.simulator().spans();
  out.span_tree = spans.serializeTree();
  for (const auto& s : spans.spans()) {
    for (const auto& [k, v] : s.attrs) {
      if (k != "aborted") continue;
      ++out.aborted_spans;
      if (s.open()) ++out.aborted_still_open;
    }
    if (s.component == "fault.injector" && s.instant) ++out.fault_instants;
  }
  return out;
}

}  // namespace

TEST(Resilience, CrashedHostJobFailsThenResubmitsAndCompletes) {
  const CrashRun r = runCrashResubmitScenario();
  EXPECT_TRUE(r.result.ok) << r.result.error;
  EXPECT_GE(r.result.resubmits, 1);
  ASSERT_FALSE(r.result.attempt_errors.empty());
  EXPECT_FALSE(r.result.attempt_errors.front().empty());
  EXPECT_EQ(r.crashes, 1);
  EXPECT_EQ(r.restarts, 1);
  EXPECT_EQ(r.injected, 2);
  EXPECT_NE(r.report.find("vm3.ucsd.edu"), std::string::npos);
}

TEST(Resilience, HostCrashAbortsOpenSpansAndMarksThem) {
  // A crash must not leak open spans: everything in flight on the dead host
  // (vmpi recv waits, quanta, the rank span itself) is closed at crash time
  // with an `aborted` attribute, and the crash/restart pair shows up as
  // instant markers in the trace.
  const CrashRun r = runCrashResubmitScenario();
  EXPECT_GT(r.aborted_spans, 0);
  EXPECT_EQ(r.aborted_still_open, 0);
  EXPECT_EQ(r.fault_instants, 2);  // crash + restart
  EXPECT_NE(r.span_tree.find("aborted=host_crash"), std::string::npos);
}

TEST(FaultPlanTest, DegradeLossOutsideUnitIntervalIsRejected) {
  // The link model takes loss rates in [0, 1). Out-of-range values once
  // passed the plan and either killed the run mid-simulation with an
  // anonymous "bad link parameters" (loss >= 1) or were silently read as
  // the "keep the loss" sentinel (loss < 0).
  auto parse = [](const std::string& loss, const std::string& extra = "") {
    return fault::FaultPlan::fromConfig(util::Config::parse(
        "[fault lossy]\nat = 1s\nkind = link_degrade\ntarget = eth0\nloss = " + loss + "\n" +
        extra));
  };
  for (const char* bad : {"2", "1"}) {
    expectConfigErrorNaming([&] { parse(bad); }, {"'lossy'", "loss"});
  }
  expectConfigErrorNaming([&] { parse("-0.5", "latency_mult = 2\n"); }, {"'lossy'", "loss"});
  EXPECT_DOUBLE_EQ(parse("0").events()[0].loss, 0.0);
  EXPECT_DOUBLE_EQ(parse("0.999").events()[0].loss, 0.999);
}

TEST(FaultPlanTest, DegradeToZeroBandwidthIsLegal) {
  // bandwidth_mult = 0 models a blackout that keeps the link administratively
  // up: fluid flows crossing it stall until the restore. Negative multipliers
  // stay configuration errors.
  auto plan = fault::FaultPlan::fromConfig(util::Config::parse(R"(
[fault blackout]
at = 1s
kind = link_degrade
target = eth0
bandwidth_mult = 0
duration = 2s
)"));
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.events()[0].bandwidth_mult, 0.0);
  EXPECT_THROW(fault::FaultPlan::fromConfig(util::Config::parse(
                   "[fault f]\nat = 1s\nkind = link_degrade\ntarget = eth0\n"
                   "bandwidth_mult = -0.5\n")),
               ConfigError);
  EXPECT_THROW(fault::FaultPlan::fromConfig(util::Config::parse(
                   "[fault f]\nat = 1s\nkind = link_degrade\ntarget = eth0\n"
                   "latency_mult = -1\n")),
               ConfigError);
}

TEST(Resilience, FlowStallsThroughZeroBandwidthOutageAndCompletes) {
  // Regression for the zero-rate drain hazard: a fluid flow whose bottleneck
  // degrades to 0 bps mid-transfer must park (no drain event at a garbage
  // time, no division blow-up) and finish after the auto-restore — the
  // transfer just takes the outage longer.
  auto cfg = core::topologies::alphaCluster();
  core::MicroGridOptions mopts;
  mopts.netmodel = net::NetModelKind::Flow;
  core::MicroGridPlatform p(cfg, mopts);

  fault::FaultPlan plan;
  fault::FaultEvent ev;
  ev.name = "blackout";
  ev.at = 0.05;
  ev.kind = fault::FaultKind::LinkDegrade;
  ev.target = "eth0";
  ev.bandwidth_mult = 0.0;
  ev.duration = 0.1;
  plan.add(ev);
  fault::FaultInjector injector(p, std::move(plan));
  injector.arm();

  // ~0.18 s of wire at 100 Mb/s: guaranteed to straddle the outage window.
  const std::size_t kBytes = 2 << 20;
  std::size_t received = 0;
  p.spawnOn("vm0.ucsd.edu", "rx", [&](vos::HostContext& ctx) {
    auto listener = ctx.listen(80);
    auto sock = listener->accept();
    std::vector<std::uint8_t> buf(1 << 16);
    for (;;) {
      const std::size_t n = sock->recv(buf.data(), buf.size());
      if (n == 0) break;
      received += n;
    }
  });
  p.spawnOn("vm1.ucsd.edu", "tx", [&](vos::HostContext& ctx) {
    ctx.sleep(0.001);
    auto sock = ctx.connect("vm0.ucsd.edu", 80);
    std::vector<std::uint8_t> msg(kBytes, 0x5a);
    sock->send(msg.data(), msg.size());
    sock->close();
  });
  const double virtual_s = p.run();

  EXPECT_EQ(received, kBytes);
  ASSERT_NE(p.network().flows(), nullptr);
  const auto& m = p.simulator().metrics();
  EXPECT_GE(m.counterValue("net.flow.stalls"), 1) << "outage never parked the transfer";
  EXPECT_EQ(m.counterValue("net.flow.aborted"), 0);
  EXPECT_EQ(p.network().flows()->activeFlows(), 0);
  // The outage pushes completion past the no-fault duration plus the window.
  EXPECT_GT(virtual_s, 0.15 + 0.1);
  EXPECT_EQ(injector.injected(), 2);  // degrade + its restore
}

TEST(Resilience, FaultRunsAreByteDeterministic) {
  const CrashRun r1 = runCrashResubmitScenario();
  const CrashRun r2 = runCrashResubmitScenario();
  EXPECT_EQ(r1.metrics_json, r2.metrics_json);
  EXPECT_EQ(r1.span_tree, r2.span_tree);
  EXPECT_EQ(r1.report, r2.report);
  EXPECT_DOUBLE_EQ(r1.result.virtual_seconds, r2.result.virtual_seconds);
  EXPECT_EQ(r1.result.resubmits, r2.result.resubmits);
}

// ------------------------------------- NPB under faults: bit determinism --

namespace {

/// Four EP ranks on the Alpha cluster while eth1 degrades to 5% loss for a
/// window covering the final allreduce: TCP retransmits, RTO timers armed
/// and cancelled, stochastic drops. Everything observable must still be a
/// pure function of the seed.
mgtest::EpFaultRun runEpWithFaults() {
  fault::FaultPlan plan;
  plan.add(mgtest::lossyEth1());
  return mgtest::runEpUnderFaults(plan);
}

}  // namespace

TEST(Resilience, NpbEpUnderFaultsIsByteDeterministic) {
  const auto r1 = runEpWithFaults();
  const auto r2 = runEpWithFaults();
  EXPECT_EQ(r1.metrics, r2.metrics);  // full metrics snapshot, byte for byte
  ASSERT_EQ(r1.checksums.size(), 4u);
  EXPECT_EQ(r1.checksums, r2.checksums);
  // The degraded link really dropped packets, so the equality above is a
  // statement about stochastic state, not zeros.
  EXPECT_NE(r1.metrics.find("\"net.packet.dropped_loss\":"), std::string::npos);
}
