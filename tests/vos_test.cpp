// Tests for the virtual-OS layer: host mapping, memory capacity enforcement,
// the Fig 4 CPU scheduler, and virtual time.
#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "util/stats.h"
#include "vos/cpu_scheduler.h"
#include "vos/memory.h"
#include "vos/virtual_host.h"
#include "vos/virtual_time.h"

using namespace mg::vos;
namespace st = mg::sim;
using mg::sim::Simulator;

// ------------------------------------------------------------- HostMapper --

namespace {
VirtualHostInfo vm(const std::string& name, const std::string& ip, const std::string& phys,
                   mg::net::NodeId node = 0) {
  VirtualHostInfo h;
  h.hostname = name;
  h.virtual_ip = ip;
  h.cpu_ops = 100e6;
  h.memory_bytes = 1 << 30;
  h.physical_host = phys;
  h.node = node;
  return h;
}
}  // namespace

TEST(HostMapper, ResolvesByNameAndIp) {
  HostMapper m;
  m.add(vm("vm0.ucsd.edu", "1.11.11.1", "phys0", 0));
  m.add(vm("vm1.ucsd.edu", "1.11.11.2", "phys1", 1));
  EXPECT_EQ(m.resolve("vm0.ucsd.edu").virtual_ip, "1.11.11.1");
  EXPECT_EQ(m.resolve("1.11.11.2").hostname, "vm1.ucsd.edu");
  EXPECT_EQ(m.byNode(1).hostname, "vm1.ucsd.edu");
  EXPECT_TRUE(m.contains("vm0.ucsd.edu"));
  EXPECT_FALSE(m.contains("nope"));
}

TEST(HostMapper, UnknownHostThrows) {
  HostMapper m;
  m.add(vm("a", "1.1.1.1", "p"));
  EXPECT_THROW(m.resolve("b"), UnknownHost);
  EXPECT_THROW(m.byNode(42), UnknownHost);
}

TEST(HostMapper, DuplicateThrows) {
  HostMapper m;
  m.add(vm("a", "1.1.1.1", "p"));
  EXPECT_THROW(m.add(vm("a", "2.2.2.2", "p")), mg::ConfigError);
  EXPECT_THROW(m.add(vm("b", "1.1.1.1", "p")), mg::ConfigError);
}

TEST(HostMapper, HostnameMayNotEqualAnotherHostsIp) {
  HostMapper m;
  m.add(vm("a", "1.1.1.1", "p", 0));
  EXPECT_THROW(m.add(vm("1.1.1.1", "2.2.2.2", "p", 1)), mg::ConfigError);
  EXPECT_THROW(m.add(vm("b", "a", "p", 1)), mg::ConfigError);
  EXPECT_EQ(m.hosts().size(), 1u);
  EXPECT_EQ(m.indexOf("1.1.1.1"), 0u);
  EXPECT_EQ(m.resolve("1.1.1.1").hostname, "a");
  EXPECT_THROW(m.indexOf("2.2.2.2"), UnknownHost);
}

TEST(HostMapper, PhysicalGrouping) {
  HostMapper m;
  m.add(vm("a", "1.1.1.1", "p0", 0));
  m.add(vm("b", "1.1.1.2", "p1", 1));
  m.add(vm("c", "1.1.1.3", "p0", 2));
  EXPECT_EQ(m.resolve("a").physical_host, "p0");
  EXPECT_EQ(m.resolve("1.1.1.2").physical_host, "p1");
  EXPECT_EQ(m.resolve("c").physical_host, "p0");
}

// ----------------------------------------------------------------- Memory --

TEST(Memory, ProcessOverheadCharged) {
  MemoryManager mm(10 * 1024);
  auto p = mm.registerProcess("test");
  EXPECT_EQ(mm.used(), MemoryManager::kProcessOverhead);
  EXPECT_EQ(mm.processUsage(p), 1024);
}

TEST(Memory, AllocateUpToCapacityMinusOverhead) {
  // The Fig 5 relationship: max allocatable = limit - ~1KB process overhead.
  const std::int64_t limit = 100 * 1024;
  MemoryManager mm(limit);
  auto p = mm.registerProcess("memhog");
  std::int64_t allocated = 0;
  const std::int64_t chunk = 1024;
  for (;;) {
    try {
      mm.allocate(p, chunk);
      allocated += chunk;
    } catch (const OutOfMemoryError&) {
      break;
    }
  }
  EXPECT_EQ(allocated, limit - MemoryManager::kProcessOverhead);
}

TEST(Memory, FreeRestoresCapacity) {
  MemoryManager mm(10 * 1024);
  auto p = mm.registerProcess("t");
  mm.allocate(p, 4096);
  EXPECT_EQ(mm.available(), 10 * 1024 - 1024 - 4096);
  mm.free(p, 4096);
  EXPECT_EQ(mm.available(), 10 * 1024 - 1024);
}

TEST(Memory, OverFreeThrows) {
  MemoryManager mm(10 * 1024);
  auto p = mm.registerProcess("t");
  mm.allocate(p, 100);
  EXPECT_THROW(mm.free(p, 200), mg::UsageError);
}

TEST(Memory, ReleaseProcessFreesEverything) {
  MemoryManager mm(10 * 1024);
  auto p = mm.registerProcess("t");
  mm.allocate(p, 2048);
  mm.releaseProcess(p);
  EXPECT_EQ(mm.used(), 0);
  EXPECT_THROW(mm.allocate(p, 1), mg::UsageError);
}

TEST(Memory, TwoProcessesShareHostCapacity) {
  MemoryManager mm(8 * 1024);
  auto p1 = mm.registerProcess("a");
  auto p2 = mm.registerProcess("b");
  mm.allocate(p1, 3 * 1024);
  EXPECT_THROW(mm.allocate(p2, 4 * 1024), OutOfMemoryError);
  mm.allocate(p2, 3 * 1024);  // fits
}

TEST(Memory, TinyCapacityRejectsProcess) {
  MemoryManager mm(512);
  EXPECT_THROW(mm.registerProcess("t"), OutOfMemoryError);
}

// -------------------------------------------------------------- Scheduler --

namespace {

/// Run a fixed CPU-seconds reference workload on a task with the given
/// fraction; return the delivered CPU fraction (cpu / wall), Fig 6's metric.
double deliveredFraction(double fraction, CompetitionProfile prof,
                         double cpu_seconds = 2.0,
                         st::SimTime quantum = 10 * st::kMillisecond) {
  Simulator sim;
  CpuScheduler sched(sim, 100e6, quantum, prof);
  double wall = 0;
  sim.spawn("ref", [&] {
    auto t = sched.addTask("ref", fraction);
    const st::SimTime t0 = sim.now();
    sched.computeSeconds(t, cpu_seconds);
    wall = st::toSeconds(sim.now() - t0);
    sched.removeTask(t);
  });
  sim.run();
  return cpu_seconds / wall;
}

}  // namespace

TEST(Scheduler, SingleTaskGetsItsFraction) {
  // Fig 6, no competition: delivered tracks specified across a wide range.
  for (double f : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    const double d = deliveredFraction(f, CompetitionProfile::none());
    EXPECT_NEAR(d, f, f * 0.03) << "fraction " << f;
  }
}

TEST(Scheduler, CapLimitsHighFractions) {
  // Fig 6: above the competition cap the virtual machine cannot deliver.
  const double d = deliveredFraction(0.8, CompetitionProfile::cpuBound());
  EXPECT_NEAR(d, 0.47, 0.03);
  const double low = deliveredFraction(0.3, CompetitionProfile::cpuBound());
  EXPECT_NEAR(low, 0.3, 0.02);  // below the cap, still accurate
}

TEST(Scheduler, NoCompetitionCapsNear95Percent) {
  const double d = deliveredFraction(1.0, CompetitionProfile::none());
  EXPECT_NEAR(d, 0.95, 0.02);
}

TEST(Scheduler, ComputeScalesWithOps) {
  Simulator sim;
  CpuScheduler sched(sim, 100e6);  // 100 Mops physical
  double wall1 = 0, wall2 = 0;
  sim.spawn("p", [&] {
    auto t = sched.addTask("p", 1.0);
    st::SimTime t0 = sim.now();
    sched.compute(t, 50e6);  // 0.5 physical cpu-seconds
    wall1 = st::toSeconds(sim.now() - t0);
    t0 = sim.now();
    sched.compute(t, 100e6);  // 1.0 physical cpu-seconds
    wall2 = st::toSeconds(sim.now() - t0);
  });
  sim.run();
  EXPECT_NEAR(wall2 / wall1, 2.0, 0.05);
}

TEST(Scheduler, TwoTasksShareByFraction) {
  Simulator sim;
  CpuScheduler sched(sim, 100e6, 10 * st::kMillisecond, {1.0, 1.0, 0.0});
  double wall_a = 0, wall_b = 0;
  sim.spawn("a", [&] {
    auto t = sched.addTask("a", 0.5);
    const st::SimTime t0 = sim.now();
    sched.computeSeconds(t, 1.0);
    wall_a = st::toSeconds(sim.now() - t0);
  });
  sim.spawn("b", [&] {
    auto t = sched.addTask("b", 0.25);
    const st::SimTime t0 = sim.now();
    sched.computeSeconds(t, 1.0);
    wall_b = st::toSeconds(sim.now() - t0);
  });
  sim.run();
  EXPECT_NEAR(wall_a, 2.0, 0.1);  // 1 cpu-second at 50%
  EXPECT_NEAR(wall_b, 4.0, 0.2);  // 1 cpu-second at 25%
}

TEST(Scheduler, QuantaLogMatchesCompetitionProfile) {
  // Fig 7: quanta distributions (normalized mean ~1, profile-specific dev).
  for (auto [prof, mean, dev] :
       {std::tuple{CompetitionProfile::none(), 1.0, 0.002},
        std::tuple{CompetitionProfile::cpuBound(), 1.01, 0.015},
        std::tuple{CompetitionProfile::ioBound(), 0.978, 0.027}}) {
    Simulator sim;
    CpuScheduler sched(sim, 100e6, 10 * st::kMillisecond, prof);
    sim.spawn("p", [&] {
      auto t = sched.addTask("p", 1.0);
      sched.computeSeconds(t, 90.0);  // ~9000 quanta, as in the paper
    });
    sim.run();
    mg::util::RunningStats s;
    for (double q : sched.quantaLog()) s.add(q);
    EXPECT_GT(s.count(), 8000);
    EXPECT_NEAR(s.mean(), mean, 0.002);
    EXPECT_NEAR(s.stddev(), dev, dev * 0.15 + 0.0005);
  }
}

TEST(Scheduler, SmallerQuantumMeansFinerGranularity) {
  // The mechanism behind Fig 11: completion times round up to quantum
  // boundaries, so a small compute on a big quantum overshoots.
  auto wallFor = [](st::SimTime quantum) {
    Simulator sim;
    CpuScheduler sched(sim, 100e6, quantum, {1.0, 1.0, 0.0});
    double wall = 0;
    sim.spawn("p", [&] {
      auto t = sched.addTask("p", 0.5);
      const st::SimTime t0 = sim.now();
      for (int i = 0; i < 20; ++i) sched.computeSeconds(t, 0.001);  // 1 ms bursts
      wall = st::toSeconds(sim.now() - t0);
    });
    sim.run();
    return wall;
  };
  const double fine = wallFor(st::kMillisecond / 2);
  const double coarse = wallFor(30 * st::kMillisecond);
  // Ideal wall time at 50% fraction = 40 ms.
  EXPECT_NEAR(fine, 0.040, 0.01);
  EXPECT_GT(coarse, fine);
}

TEST(Scheduler, DeterministicAcrossRuns) {
  auto run = [] {
    Simulator sim;
    CpuScheduler sched(sim, 100e6, 10 * st::kMillisecond, CompetitionProfile::ioBound(), 77);
    st::SimTime end = 0;
    sim.spawn("p", [&] {
      auto t = sched.addTask("p", 0.7);
      sched.computeSeconds(t, 3.0);
      end = sim.now();
    });
    sim.run();
    return end;
  };
  EXPECT_EQ(run(), run());
}

TEST(Scheduler, RejectsInvalidArguments) {
  Simulator sim;
  EXPECT_THROW(CpuScheduler(sim, 0), mg::ConfigError);
  EXPECT_THROW(CpuScheduler(sim, 1e6, 0), mg::ConfigError);
  CpuScheduler sched(sim, 100e6);
  EXPECT_THROW(sched.addTask("x", 0.0), mg::UsageError);
  EXPECT_THROW(sched.addTask("x", 1.5), mg::UsageError);
  auto t = sched.addTask("ok", 0.5);
  EXPECT_THROW(sched.setFraction(t, -1), mg::UsageError);
  EXPECT_THROW(sched.usedCpuSeconds(99), mg::UsageError);
}

TEST(Scheduler, SetFractionTakesEffect) {
  Simulator sim;
  CpuScheduler sched(sim, 100e6, st::kMillisecond, {1.0, 1.0, 0.0});
  double wall_fast = 0, wall_slow = 0;
  sim.spawn("p", [&] {
    auto t = sched.addTask("p", 1.0);
    st::SimTime t0 = sim.now();
    sched.computeSeconds(t, 0.2);
    wall_fast = st::toSeconds(sim.now() - t0);
    sched.setFraction(t, 0.2);
    t0 = sim.now();
    sched.computeSeconds(t, 0.2);
    wall_slow = st::toSeconds(sim.now() - t0);
  });
  sim.run();
  EXPECT_NEAR(wall_fast, 0.2, 0.01);
  EXPECT_NEAR(wall_slow, 1.0, 0.05);
}

TEST(Scheduler, UsedCpuAccounting) {
  Simulator sim;
  CpuScheduler sched(sim, 100e6, 10 * st::kMillisecond, {1.0, 1.0, 0.0});
  sim.spawn("p", [&] {
    auto t = sched.addTask("p", 0.5);
    sched.computeSeconds(t, 0.75);
    EXPECT_NEAR(sched.usedCpuSeconds(t), 0.75, 0.02);
  });
  sim.run();
}

// ------------------------------------------------------------ VirtualTime --

TEST(VirtualTime, MapsKernelToVirtual) {
  VirtualTime vt(0.04);  // the paper's Fig 17 rate
  EXPECT_DOUBLE_EQ(vt.toVirtualSeconds(st::fromSeconds(25.0)), 1.0);
  EXPECT_EQ(vt.toKernel(1.0), st::fromSeconds(25.0));
  EXPECT_DOUBLE_EQ(vt.kernelPerVirtual(), 25.0);
}

TEST(VirtualTime, FullSpeedIdentity) {
  VirtualTime vt(1.0);
  EXPECT_DOUBLE_EQ(vt.toVirtualSeconds(st::kSecond), 1.0);
}

TEST(VirtualTime, InvalidRateThrows) {
  EXPECT_THROW(VirtualTime(0.0), mg::ConfigError);
  EXPECT_THROW(VirtualTime(-1.0), mg::ConfigError);
}
