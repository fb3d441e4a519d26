// Integration tests for the core module: virtual-grid config, simulation
// rate, both platforms, GIS-as-a-service, the GRAM path, the launcher, and
// the cross-platform validation properties the paper's experiments rely on.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/launcher.h"
#include "core/microgrid_platform.h"
#include "core/reference_platform.h"
#include "core/topologies.h"
#include "gis/schema.h"
#include "gis/service.h"
#include "grid/gram.h"
#include "obs/state_capture.h"
#include "util/strings.h"
#include "vmpi/comm.h"

using namespace mg;
using namespace mg::core;

// ------------------------------------------------------ VirtualGridConfig --

TEST(VirtualGrid, BuildAndQuery) {
  VirtualGridConfig cfg;
  cfg.addPhysical("phys0", 533e6);
  cfg.addHost("vm0", "1.1.1.1", 533e6, 1 << 30, "phys0");
  cfg.addHost("vm1", "1.1.1.2", 266e6, 1 << 30, "phys0");
  cfg.addRouter("sw");
  cfg.addLink("l0", "vm0", "sw", 100e6, 1e-3);
  cfg.addLink("l1", "1.1.1.2", "sw", 100e6, 1e-3);  // by IP
  EXPECT_EQ(cfg.topology().nodeCount(), 3);
  EXPECT_EQ(cfg.topology().linkCount(), 2);
  EXPECT_DOUBLE_EQ(cfg.virtualOps()[cfg.physicalIndex("phys0")], 799e6);
  EXPECT_THROW(cfg.addHost("vm2", "1.1.1.3", 1e6, 1, "nope"), mg::ConfigError);
  EXPECT_THROW(cfg.addLink("l2", "vm0", "ghost", 1e6, 0), mg::ConfigError);
}

TEST(VirtualGrid, FromConfigFile) {
  auto cfg = VirtualGridConfig::fromConfig(util::Config::parse(R"(
[physical phys0]
cpu = 533MHz
[host vm0.ucsd.edu]
ip = 1.11.11.1
cpu = 533MHz
memory = 1GB
map = phys0
[host vm1.ucsd.edu]
ip = 1.11.11.2
cpu = 533MHz
memory = 1GB
map = phys0
[node switch0]
kind = router
[link e0]
a = vm0.ucsd.edu
b = switch0
bandwidth = 100Mbps
latency = 0.05ms
[link e1]
a = vm1.ucsd.edu
b = switch0
bandwidth = 100Mbps
latency = 0.05ms
)"));
  EXPECT_EQ(cfg.mapper().hosts().size(), 2u);
  EXPECT_EQ(cfg.topology().nodeCount(), 3);
  EXPECT_DOUBLE_EQ(cfg.physicalMachines()[cfg.physicalIndex("phys0")].cpu_ops, 533e6);
}

TEST(VirtualGrid, ToGisPublishesFig3Records) {
  auto cfg = topologies::alphaCluster();
  gis::Directory dir;
  const auto base = gis::Dn::parse("ou=MicroGrid, o=Grid");
  cfg.toGis(dir, base, "AlphaCluster");
  auto hosts = gis::virtualHostsForConfig(dir, base, "AlphaCluster");
  EXPECT_EQ(hosts.size(), 4u);
  auto nets = gis::virtualNetworksForConfig(dir, base, "AlphaCluster");
  EXPECT_EQ(nets.size(), 4u);
  // The records carry the paper's virtualization attributes.
  EXPECT_EQ(hosts[0].get("Is_Virtual_Resource"), "Yes");
  EXPECT_EQ(hosts[0].get("Mapped_Physical_Resource"), "alpha0");
}

// ---------------------------------------------------------- SimulationRate --

TEST(SimulationRate, PaperExampleHalfSpeed) {
  // §2.3: physical 100 MIPS, virtual 200 MIPS -> SR = 0.5.
  VirtualGridConfig cfg;
  cfg.addPhysical("p", 100e6);
  cfg.addHost("v", "1.1.1.1", 200e6, 1 << 20, "p");
  auto sr = SimulationRate::compute(cfg);
  EXPECT_DOUBLE_EQ(sr.max_feasible, 0.5);
}

TEST(SimulationRate, MinAcrossMachines) {
  VirtualGridConfig cfg;
  cfg.addPhysical("p0", 100e6);
  cfg.addPhysical("p1", 100e6);
  cfg.addHost("a", "1.1.1.1", 50e6, 1 << 20, "p0");   // SR 2.0
  cfg.addHost("b", "1.1.1.2", 100e6, 1 << 20, "p1");  // SR 1.0
  cfg.addHost("c", "1.1.1.3", 100e6, 1 << 20, "p1");  // shares p1 -> SR 0.5
  auto sr = SimulationRate::compute(cfg);
  ASSERT_EQ(sr.per_machine.size(), 2u);
  EXPECT_DOUBLE_EQ(sr.per_machine[0], 2.0);
  EXPECT_DOUBLE_EQ(sr.per_machine[1], 0.5);
  EXPECT_DOUBLE_EQ(sr.max_feasible, 0.5);
}

TEST(SimulationRate, NoHostsThrows) {
  VirtualGridConfig cfg;
  cfg.addPhysical("p", 100e6);
  EXPECT_THROW(SimulationRate::compute(cfg), mg::ConfigError);
}

// ------------------------------------------------------------- topologies --

TEST(Topologies, PresetsAreWellFormed) {
  auto alpha = topologies::alphaCluster();
  EXPECT_EQ(alpha.mapper().hosts().size(), 4u);
  EXPECT_DOUBLE_EQ(SimulationRate::compute(alpha).max_feasible, 1.0);

  auto hpvm = topologies::hpvm();
  EXPECT_EQ(hpvm.mapper().hosts().size(), 4u);
  EXPECT_NEAR(SimulationRate::compute(hpvm).max_feasible, 533.0 / 300.0, 1e-9);

  auto vbns = topologies::vbns();
  EXPECT_EQ(vbns.mapper().hosts().size(), 4u);
  // Cross-country route exists.
  net::RoutingTable rt(vbns.topology());
  const auto& m = vbns.mapper();
  auto path = rt.path(m.resolve("ucsd0.ucsd.edu").node, m.resolve("uiuc0.uiuc.edu").node);
  EXPECT_GE(path.size(), 5u);  // LAN, uplink, 3 WAN legs, uplink, LAN
}

// ------------------------------------------------------ ReferencePlatform --

TEST(ReferencePlatform, ComputeIsExact) {
  auto cfg = topologies::alphaCluster();
  ReferencePlatform p(cfg);
  double t = -1;
  p.spawnOn("vm0.ucsd.edu", "w", [&](vos::HostContext& ctx) {
    ctx.compute(533e6);  // exactly one second at 533 Mops
    t = ctx.wallTime();
  });
  p.run();
  EXPECT_NEAR(t, 1.0, 1e-9);
}

TEST(ReferencePlatform, TransferTimeMatchesFlowModel) {
  auto cfg = topologies::alphaCluster();
  ReferencePlatform p(cfg);
  const std::int64_t kBytes = 1 << 20;
  double duration = 0;
  p.spawnOn("vm0.ucsd.edu", "server", [&](vos::HostContext& ctx) {
    auto listener = ctx.listen(80);
    auto sock = listener->accept();
    std::vector<std::uint8_t> sink(kBytes);
    const double t0 = ctx.wallTime();
    sock->recvExact(sink.data(), sink.size());
    duration = ctx.wallTime() - t0;
  });
  p.spawnOn("vm1.ucsd.edu", "client", [&](vos::HostContext& ctx) {
    ctx.sleep(0.001);
    auto sock = ctx.connect("vm0.ucsd.edu", 80);
    std::vector<std::uint8_t> data(kBytes, 7);
    sock->send(data.data(), data.size());
  });
  p.run();
  // ~1 MB at 100 Mb/s with 1538/1460 framing: ~88 ms.
  EXPECT_NEAR(duration, 0.088, 0.01);
}

// ------------------------------------------------------ platform contract --
//
// Both platforms run processes on one host runtime; only the CPU and network
// models differ. The process-facing contract holds on the reference, on
// MicroGrid flow at rate 1, and on MicroGrid packet at its derived rate.

enum class PlatformKind { Reference, MicroGridFlowRate1, MicroGridPacket };

// Names each instance: ctest shows the printed parameter after the suite.
void PrintTo(PlatformKind kind, std::ostream* os) {
  switch (kind) {
    case PlatformKind::Reference: *os << "Reference"; return;
    case PlatformKind::MicroGridFlowRate1: *os << "MicroGridFlowRate1"; return;
    case PlatformKind::MicroGridPacket: *os << "MicroGridPacket"; return;
  }
}

std::unique_ptr<Platform> makePlatform(PlatformKind kind, const VirtualGridConfig& cfg) {
  switch (kind) {
    case PlatformKind::Reference:
      return std::make_unique<ReferencePlatform>(cfg);
    case PlatformKind::MicroGridFlowRate1: {
      MicroGridOptions opts;
      opts.netmodel = net::NetModelKind::Flow;
      opts.rate_override = 1.0;
      return std::make_unique<MicroGridPlatform>(cfg, opts);
    }
    case PlatformKind::MicroGridPacket:
      return std::make_unique<MicroGridPlatform>(cfg);
  }
  return nullptr;
}

class PlatformContract : public ::testing::TestWithParam<PlatformKind> {
 protected:
  std::unique_ptr<Platform> make(const VirtualGridConfig& cfg) {
    return makePlatform(GetParam(), cfg);
  }
  /// At rate 1 the virtual clock is the kernel clock; elsewhere a virtual
  /// duration rounds to a whole kernel nanosecond.
  bool unitRate() const { return GetParam() != PlatformKind::MicroGridPacket; }
};

TEST_P(PlatformContract, SleepAndWallTime) {
  auto cfg = topologies::alphaCluster();
  auto p = make(cfg);
  double t = -1;
  p->spawnOn("vm1.ucsd.edu", "w", [&](vos::HostContext& ctx) {
    EXPECT_DOUBLE_EQ(ctx.wallTime(), 0.0);
    ctx.sleep(2.5);
    t = ctx.wallTime();
  });
  p->run();
  if (unitRate()) {
    EXPECT_DOUBLE_EQ(t, 2.5);
  } else {
    EXPECT_NEAR(t, 2.5, 1e-9);
  }
}

TEST_P(PlatformContract, SocketEchoAcrossHosts) {
  auto cfg = topologies::alphaCluster();
  auto p = make(cfg);
  std::string got;
  p->spawnOn("vm0.ucsd.edu", "server", [&](vos::HostContext& ctx) {
    auto listener = ctx.listen(80);
    auto sock = listener->accept();
    char buf[64];
    const size_t n = sock->recv(buf, sizeof buf);
    sock->send(buf, n);
    sock->close();
  });
  p->spawnOn("vm1.ucsd.edu", "client", [&](vos::HostContext& ctx) {
    ctx.sleep(0.001);
    auto sock = ctx.connect("1.11.11.1", 80);  // by virtual IP
    sock->send("ping", 4);
    char buf[8];
    sock->recvExact(buf, 4);
    got.assign(buf, 4);
    EXPECT_EQ(sock->peerHost(), "vm0.ucsd.edu");
  });
  p->run();
  EXPECT_EQ(got, "ping");
}

TEST_P(PlatformContract, ConnectionRefusedWithoutListener) {
  auto cfg = topologies::alphaCluster();
  auto p = make(cfg);
  bool refused = false;
  p->spawnOn("vm0.ucsd.edu", "client", [&](vos::HostContext& ctx) {
    try {
      ctx.connect("vm1.ucsd.edu", 1234);
    } catch (const mg::Error&) {
      refused = true;
    }
  });
  p->run();
  EXPECT_TRUE(refused);
}

TEST_P(PlatformContract, MemoryEnforced) {
  VirtualGridConfig cfg;
  cfg.addPhysical("p", 100e6);
  cfg.addHost("tiny", "1.1.1.1", 100e6, 64 * 1024, "p");
  auto p = make(cfg);
  bool oom = false;
  std::int64_t allocated = 0;
  p->spawnOn("tiny", "memhog", [&](vos::HostContext& ctx) {
    try {
      for (;;) {
        ctx.allocateMemory(1024);
        allocated += 1024;
      }
    } catch (const vos::OutOfMemoryError&) {
      oom = true;
    }
  });
  p->run();
  EXPECT_TRUE(oom);
  EXPECT_EQ(allocated, 64 * 1024 - vos::MemoryManager::kProcessOverhead);
}

INSTANTIATE_TEST_SUITE_P(Platforms, PlatformContract,
                         ::testing::Values(PlatformKind::Reference,
                                           PlatformKind::MicroGridFlowRate1,
                                           PlatformKind::MicroGridPacket));

// ------------------------------------------------------------ name indexes --

namespace {
/// flow_smoke's tree: `hosts` hosts, 64 to an edge switch and one physical
/// machine per switch, under one core router; every name is generated.
VirtualGridConfig generatedTree(int hosts) {
  VirtualGridConfig cfg;
  cfg.addRouter("core");
  for (int s = 0; s * 64 < hosts; ++s) {
    cfg.addRouter(util::format("sw%d", s));
    cfg.addLink(util::format("up%d", s), util::format("sw%d", s), "core", 1e9, 2e-4);
    cfg.addPhysical(util::format("pm%d", s), 64 * 500e6);
  }
  for (int h = 0; h < hosts; ++h) {
    const std::string ip = util::format("10.%d.%d.%d", h / 65536, h / 256 % 256, h % 256);
    cfg.addHost(util::format("h%d", h), ip, 500e6, 1 << 28, util::format("pm%d", h / 64));
    cfg.addLink(util::format("eth%d", h), util::format("h%d", h), util::format("sw%d", h / 64),
                100e6, 5e-5);
  }
  return cfg;
}
}  // namespace

TEST(NameIndexes, CopiesResolveEveryGeneratedName) {
  constexpr int kHosts = 100000;
  constexpr int kSwitches = (kHosts + 63) / 64;
  const VirtualGridConfig orig = generatedTree(kHosts);
  const VirtualGridConfig cfg = orig;
  const net::Topology topo = orig.topology();
  const vos::HostMapper mapper = orig.mapper();
  // Node ids: core, then each switch, then each host; link ids: each uplink,
  // then each host link; machines and hosts in insertion order.
  int wrong = 0;
  for (const net::Topology* t : {&orig.topology(), &cfg.topology(), &topo}) {
    wrong += t->findNode("core") != 0;
    for (int s = 0; s < kSwitches; ++s) {
      wrong += t->findNode(util::format("sw%d", s)) != 1 + s;
      wrong += t->findLink(util::format("up%d", s)) != s;
    }
    for (int h = 0; h < kHosts; ++h) {
      wrong += t->findNode(util::format("h%d", h)) != 1 + kSwitches + h;
      wrong += t->findLink(util::format("eth%d", h)) != kSwitches + h;
    }
  }
  for (const vos::HostMapper* m : {&orig.mapper(), &cfg.mapper(), &mapper}) {
    for (int h = 0; h < kHosts; ++h) {
      const auto pos = static_cast<std::size_t>(h);
      wrong += m->indexOf(util::format("h%d", h)) != pos;
      wrong += m->indexOf(util::format("10.%d.%d.%d", h / 65536, h / 256 % 256, h % 256)) != pos;
      wrong += m->byNode(1 + kSwitches + h).hostname != util::format("h%d", h);
    }
  }
  for (const VirtualGridConfig* c : {&orig, &cfg}) {
    for (int s = 0; s < kSwitches; ++s) {
      wrong += c->physicalIndex(util::format("pm%d", s)) != static_cast<std::size_t>(s);
    }
  }
  EXPECT_EQ(wrong, 0);
}

TEST(NameIndexes, RoutersAndMissesHaveNoHost) {
  VirtualGridConfig cfg = generatedTree(130);
  EXPECT_THROW(cfg.mapper().byNode(cfg.topology().findNode("core")), vos::UnknownHost);
  EXPECT_THROW(cfg.mapper().byNode(cfg.topology().findNode("sw1")), vos::UnknownHost);
  EXPECT_THROW(cfg.mapper().byNode(net::kNoNode), vos::UnknownHost);
  EXPECT_EQ(cfg.mapper().resolve("10.0.0.70").hostname, "h70");
  EXPECT_EQ(cfg.topology().findNode("h130"), net::kNoNode);
  EXPECT_THROW(cfg.addRouter("h5"), ConfigError);
  EXPECT_THROW(cfg.addPhysical("pm1", 1e9), ConfigError);
  EXPECT_THROW(cfg.physicalIndex("pm9"), ConfigError);
  EXPECT_DOUBLE_EQ(cfg.virtualOps()[cfg.physicalIndex("pm2")], 2 * 500e6);  // h128, h129
}

// ---------------------------------------------------------- platform hosts --

TEST(PlatformHosts, MemoryMetricsListedBeforeAnySpawn) {
  const auto cfg = topologies::alphaCluster();
  ReferencePlatform ref(cfg);
  MicroGridPlatform mg(cfg);
  for (Platform* p : std::initializer_list<Platform*>{&ref, &mg}) {
    const std::string json = p->simulator().metrics().snapshotJson();
    for (const char* name : {"vos.mem.allocations", "vos.mem.oom_errors", "vos.mem.used_bytes"}) {
      EXPECT_NE(json.find(util::format("\"%s\"", name)), std::string::npos) << name;
    }
  }
}

TEST(PlatformHosts, StateCaptureWalksMapperOrder) {
  VirtualGridConfig cfg;
  cfg.addPhysical("p0", 1e9);
  cfg.addRouter("sw");
  // Added out of name order, each at its own speed (so its own fraction).
  const std::vector<std::pair<std::string, double>> hosts{
      {"vm2", 300e6}, {"vm0", 100e6}, {"vm10", 400e6}, {"vm1", 200e6}};
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    cfg.addHost(hosts[i].first, util::format("10.0.0.%zu", i + 1), hosts[i].second, 1 << 20, "p0");
    cfg.addLink("l" + hosts[i].first, hosts[i].first, "sw", 100e6, 1e-4);
  }
  MicroGridOptions opts;
  opts.netmodel = net::NetModelKind::Flow;
  MicroGridPlatform p(cfg, opts);
  p.spawnOn("vm1", "holder", [](vos::HostContext& ctx) {
    ctx.allocateMemory(4096);
    ctx.sleep(1.0);
    ctx.freeMemory(4096);
  });
  p.simulator().runUntil(sim::fromSeconds(0.1));
  obs::StateWriter got;
  p.saveState(got);

  // The layout the explorer's digests fold: the kernel, the network, the
  // one (still idle) physical machine, then the hosts in the order they
  // were added, with a mem_used for every host (0 on one that never ran a
  // process).
  obs::StateWriter want;
  want.key("sim");
  p.simulator().saveState(want);
  want.key("net");
  p.network().saveState(want);
  want.key("p0");
  sim::Simulator idle_sim;
  vos::CpuScheduler(idle_sim, 1e9, opts.quantum, vos::CompetitionProfile::none(), opts.seed + 1)
      .saveState(want);
  want.u64("hosts", 4);
  for (const auto& [name, ops] : hosts) {
    want.str("host", name);
    want.boolean("alive", true);
    want.f64("cpu_factor", 1.0);
    want.f64("host_fraction", std::min(1.0, p.rate() * ops / 1e9));
    want.u64("tasks", 0);
    want.i64("mem_used", name == "vm1" ? vos::MemoryManager::kProcessOverhead + 4096 : 0);
  }
  EXPECT_EQ(got.digest(), want.digest());
  p.run();
}

TEST(PlatformHosts, FaultSurfaceTakesHostnamesOnly) {
  const auto cfg = topologies::alphaCluster();
  MicroGridPlatform p(cfg);
  const vos::VirtualHostInfo& first = cfg.mapper().hosts().front();
  ASSERT_FALSE(first.virtual_ip.empty());
  EXPECT_THROW(p.crashHost(first.virtual_ip), vos::UnknownHost);
  EXPECT_THROW(p.hostAlive(first.virtual_ip), vos::UnknownHost);
  EXPECT_THROW(p.crashHost("nope"), vos::UnknownHost);
  EXPECT_TRUE(p.hostAlive(first.hostname));
  // spawnOn, like every resolution call, takes either.
  bool ran = false;
  p.spawnOn(first.virtual_ip, "by-ip", [&](vos::HostContext& ctx) {
    ran = ctx.host().hostname == first.hostname;
  });
  p.run();
  EXPECT_TRUE(ran);
}

// ------------------------------------------------------ MicroGridPlatform --

TEST(MicroGridPlatform, RateFollowsConfig) {
  auto cfg = topologies::alphaCluster();  // SR = 1
  MicroGridOptions opts;
  MicroGridPlatform p(cfg, opts);
  EXPECT_NEAR(p.rate(), 0.9, 1e-12);

  MicroGridOptions slow = opts;
  slow.slowdown = 4.0;
  MicroGridPlatform p4(cfg, slow);
  EXPECT_NEAR(p4.rate(), 0.225, 1e-12);

  MicroGridOptions ovr;
  ovr.rate_override = 0.04;  // the paper's Fig 17 rate
  MicroGridPlatform po(cfg, ovr);
  EXPECT_DOUBLE_EQ(po.rate(), 0.04);
}

TEST(MicroGridPlatform, RateMustBeFiniteAndPositive) {
  auto cfg = topologies::alphaCluster();
  MicroGridOptions nan_override;
  nan_override.rate_override = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(MicroGridPlatform(cfg, nan_override), ConfigError);
  MicroGridOptions zero_slowdown;
  zero_slowdown.slowdown = 0;  // rate = max_feasible * utilization / 0 = inf
  EXPECT_THROW(MicroGridPlatform(cfg, zero_slowdown), ConfigError);
  MicroGridOptions nan_slowdown;
  nan_slowdown.slowdown = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(MicroGridPlatform(cfg, nan_slowdown), ConfigError);
  MicroGridOptions negative;
  negative.slowdown = -1;
  EXPECT_THROW(MicroGridPlatform(cfg, negative), ConfigError);
}

TEST(MicroGridPlatform, ComputeMatchesVirtualSpeed) {
  auto cfg = topologies::alphaCluster();
  MicroGridPlatform p(cfg);
  double t = -1;
  p.spawnOn("vm0.ucsd.edu", "w", [&](vos::HostContext& ctx) {
    ctx.compute(533e6);  // one virtual second
    t = ctx.wallTime();
  });
  p.run();
  // Quantum rounding makes this slightly coarse, not wildly off.
  EXPECT_NEAR(t, 1.0, 0.03);
}

TEST(MicroGridPlatform, EmulationCostReflectsRate) {
  auto cfg = topologies::alphaCluster();
  MicroGridOptions opts;
  opts.rate_override = 0.25;
  MicroGridPlatform p(cfg, opts);
  p.spawnOn("vm0.ucsd.edu", "w", [&](vos::HostContext& ctx) { ctx.compute(533e6); });
  p.run();
  // One virtual second at rate 0.25 costs ~4 emulation seconds.
  EXPECT_NEAR(p.emulationNow(), 4.0, 0.2);
  EXPECT_NEAR(p.virtualNow(), 1.0, 0.05);
}

TEST(MicroGridPlatform, SocketEchoThroughPacketNetwork) {
  auto cfg = topologies::alphaCluster();
  MicroGridPlatform p(cfg);
  std::string got;
  p.spawnOn("vm0.ucsd.edu", "server", [&](vos::HostContext& ctx) {
    auto listener = ctx.listen(80);
    auto sock = listener->accept();
    char buf[64];
    const size_t n = sock->recv(buf, sizeof buf);
    sock->send(buf, n);
  });
  p.spawnOn("vm1.ucsd.edu", "client", [&](vos::HostContext& ctx) {
    ctx.sleep(0.001);
    auto sock = ctx.connect("vm0.ucsd.edu", 80);
    sock->send("grid", 4);
    char buf[8];
    sock->recvExact(buf, 4);
    got.assign(buf, 4);
  });
  p.run();
  EXPECT_EQ(got, "grid");
  EXPECT_GT(p.simulator().metrics().counterValue("net.packet.delivered"), 0);
}

TEST(MicroGridPlatform, SocketEchoThroughFlowModel) {
  auto cfg = topologies::alphaCluster();
  MicroGridOptions mopts;
  mopts.netmodel = net::NetModelKind::Flow;
  MicroGridPlatform p(cfg, mopts);
  std::string got;
  p.spawnOn("vm0.ucsd.edu", "server", [&](vos::HostContext& ctx) {
    auto listener = ctx.listen(80);
    auto sock = listener->accept();
    char buf[64];
    const size_t n = sock->recv(buf, sizeof buf);
    sock->send(buf, n);
  });
  p.spawnOn("vm1.ucsd.edu", "client", [&](vos::HostContext& ctx) {
    ctx.sleep(0.001);
    auto sock = ctx.connect("vm0.ucsd.edu", 80);
    sock->send("grid", 4);
    char buf[8];
    sock->recvExact(buf, 4);
    got.assign(buf, 4);
  });
  p.run();
  EXPECT_EQ(got, "grid");
  ASSERT_NE(p.network().flows(), nullptr);
  EXPECT_GT(p.simulator().metrics().counterValue("net.flow.started"), 0);
  // No packet machinery exists in pure flow mode: no packet half, so a
  // packet has nowhere to go.
  EXPECT_FALSE(p.network().carriesPackets());
  net::Packet pkt;
  pkt.src = 0;
  pkt.dst = 1;
  EXPECT_THROW(p.network().send(std::move(pkt)), mg::UsageError);
}

TEST(MicroGridPlatform, HybridEscalatesBySelector) {
  auto cfg = topologies::alphaCluster();
  MicroGridOptions mopts;
  mopts.netmodel = net::NetModelKind::Hybrid;
  mopts.netmodel_detail = {"port:81"};
  MicroGridPlatform p(cfg, mopts);
  auto echoServer = [](vos::HostContext& ctx, std::uint16_t port) {
    auto listener = ctx.listen(port);
    auto sock = listener->accept();
    char buf[64];
    const size_t n = sock->recv(buf, sizeof buf);
    sock->send(buf, n);
  };
  std::string via_flow, via_packet;
  p.spawnOn("vm0.ucsd.edu", "srv80", [&](vos::HostContext& ctx) { echoServer(ctx, 80); });
  p.spawnOn("vm0.ucsd.edu", "srv81", [&](vos::HostContext& ctx) { echoServer(ctx, 81); });
  p.spawnOn("vm1.ucsd.edu", "client", [&](vos::HostContext& ctx) {
    ctx.sleep(0.001);
    auto fluid = ctx.connect("vm0.ucsd.edu", 80);
    fluid->send("flow", 4);
    char buf[8];
    fluid->recvExact(buf, 4);
    via_flow.assign(buf, 4);
    auto detailed = ctx.connect("vm0.ucsd.edu", 81);
    detailed->send("pckt", 4);
    detailed->recvExact(buf, 4);
    via_packet.assign(buf, 4);
  });
  p.run();
  EXPECT_EQ(via_flow, "flow");
  EXPECT_EQ(via_packet, "pckt");
  // Both engines carried their share: port 81 escalated to the packet path,
  // everything else rode the fluid model.
  EXPECT_TRUE(p.network().escalate(0, 1, 81));
  EXPECT_FALSE(p.network().escalate(0, 1, 80));
  ASSERT_NE(p.network().flows(), nullptr);
  EXPECT_GT(p.simulator().metrics().counterValue("net.flow.started"), 0);
  EXPECT_GT(p.simulator().metrics().counterValue("net.packet.delivered"), 0);
}

TEST(MicroGridPlatform, HybridEscalatedConnectionIsPacketBothWays) {
  // The escalation choice is made once, at connect: the server's replies go
  // to the client's ephemeral port, which no `port:81` selector matches,
  // yet they must ride the same TCP connection over packets, not the
  // fluid engine.
  auto cfg = topologies::alphaCluster();
  MicroGridOptions mopts;
  mopts.netmodel = net::NetModelKind::Hybrid;
  mopts.netmodel_detail = {"port:81"};
  MicroGridPlatform p(cfg, mopts);
  std::string echoed;
  p.spawnOn("vm0.ucsd.edu", "srv81", [&](vos::HostContext& ctx) {
    auto listener = ctx.listen(81);
    auto sock = listener->accept();
    char buf[64];
    const size_t n = sock->recv(buf, sizeof buf);
    sock->send(buf, n);
  });
  p.spawnOn("vm1.ucsd.edu", "client", [&](vos::HostContext& ctx) {
    ctx.sleep(0.001);
    auto sock = ctx.connect("vm0.ucsd.edu", 81);
    sock->send("pckt", 4);
    char buf[8];
    sock->recvExact(buf, 4);
    echoed.assign(buf, 4);
  });
  p.run();
  EXPECT_EQ(echoed, "pckt");
  EXPECT_GT(p.simulator().metrics().counterValue("net.packet.delivered"), 0);
  EXPECT_EQ(p.simulator().metrics().counterValue("net.flow.started"), 0);
}

TEST(MicroGridPlatform, FlowModeCrashResetsBlockedPeers) {
  auto cfg = topologies::alphaCluster();
  MicroGridOptions mopts;
  mopts.netmodel = net::NetModelKind::Flow;
  MicroGridPlatform p(cfg, mopts);
  bool reset_seen = false;
  p.spawnOn("vm0.ucsd.edu", "server", [&](vos::HostContext& ctx) {
    auto listener = ctx.listen(80);
    auto sock = listener->accept();
    char buf[16];
    sock->recv(buf, sizeof buf);
    ctx.sleep(100.0);  // never finishes: the host crashes first
  });
  p.spawnOn("vm1.ucsd.edu", "client", [&](vos::HostContext& ctx) {
    auto sock = ctx.connect("vm0.ucsd.edu", 80);
    sock->send("hi", 2);
    char buf[8];
    try {
      sock->recv(buf, sizeof buf);  // dying gasp, not an infinite block
    } catch (const net::ConnectionReset&) {
      reset_seen = true;
    }
  });
  p.simulator().scheduleAfter(sim::fromSeconds(0.5), [&p] { p.crashHost("vm0.ucsd.edu"); });
  p.run();
  EXPECT_TRUE(reset_seen);
}

TEST(MicroGridPlatform, TwoVirtualHostsShareOnePhysical) {
  VirtualGridConfig cfg;
  cfg.addPhysical("p", 533e6);
  cfg.addHost("a", "1.1.1.1", 266e6, 1 << 30, "p");
  cfg.addHost("b", "1.1.1.2", 266e6, 1 << 30, "p");
  cfg.addRouter("sw");
  cfg.addLink("l0", "a", "sw", 100e6, 1e-4);
  cfg.addLink("l1", "b", "sw", 100e6, 1e-4);
  MicroGridPlatform p(cfg);  // rate = 0.9 * 533/532... = 0.9 * 533/532? SR = 533/532e6
  double ta = -1, tb = -1;
  p.spawnOn("a", "wa", [&](vos::HostContext& ctx) {
    ctx.compute(266e6);
    ta = ctx.wallTime();
  });
  p.spawnOn("b", "wb", [&](vos::HostContext& ctx) {
    ctx.compute(266e6);
    tb = ctx.wallTime();
  });
  p.run();
  // Both virtual hosts run one virtual second of work concurrently; the
  // shared physical CPU serves both at the feasible rate.
  EXPECT_NEAR(ta, 1.0, 0.05);
  EXPECT_NEAR(tb, 1.0, 0.05);
}

// The Fig 15 property: emulation rate does not change virtual-time results.
TEST(MicroGridPlatform, VirtualResultsInvariantUnderSlowdown) {
  auto runAt = [](double slowdown) {
    auto cfg = topologies::alphaCluster();
    MicroGridOptions opts;
    opts.slowdown = slowdown;
    MicroGridPlatform p(cfg, opts);
    double t = -1;
    p.spawnOn("vm0.ucsd.edu", "server", [&](vos::HostContext& ctx) {
      auto listener = ctx.listen(80);
      auto sock = listener->accept();
      for (int i = 0; i < 5; ++i) {
        char buf[1024];
        sock->recvExact(buf, sizeof buf);
        // Compute phases span many quanta (as the NPB do); sub-quantum
        // bursts run at full physical speed under the Fig 4 credit rule
        // and are NOT rate-invariant — the effect Fig 11 measures.
        ctx.compute(50e6);
        sock->send(buf, sizeof buf);
      }
    });
    p.spawnOn("vm1.ucsd.edu", "client", [&](vos::HostContext& ctx) {
      ctx.sleep(0.001);
      auto sock = ctx.connect("vm0.ucsd.edu", 80);
      char buf[1024] = {0};
      for (int i = 0; i < 5; ++i) {
        ctx.compute(50e6);
        sock->send(buf, sizeof buf);
        sock->recvExact(buf, sizeof buf);
      }
      t = ctx.wallTime();
    });
    p.run();
    return t;
  };
  const double t1 = runAt(1.0);
  const double t8 = runAt(8.0);
  EXPECT_NEAR(t8 / t1, 1.0, 0.1);
}

// -------------------------------------------------------- GIS as a service --

TEST(GisService, RemoteSearchAddRemove) {
  auto cfg = topologies::alphaCluster();
  ReferencePlatform p(cfg);
  gis::Directory dir;
  cfg.toGis(dir, gis::Dn::parse("ou=MicroGrid, o=Grid"), "AlphaCluster");

  p.spawnOn("vm0.ucsd.edu", "gis-server",
            [&](vos::HostContext& ctx) { gis::serveDirectory(ctx, dir); });

  int found = -1;
  bool removed = false;
  int after_remove = -1;
  p.spawnOn("vm1.ucsd.edu", "client", [&](vos::HostContext& ctx) {
    ctx.sleep(0.01);
    gis::GisClient client(ctx, "vm0.ucsd.edu");
    auto records = client.search("ou=MicroGrid, o=Grid", gis::Scope::Subtree,
                                 "(Is_Virtual_Resource=Yes)");
    found = static_cast<int>(records.size());

    gis::Record extra(gis::Dn::parse("hn=new.ucsd.edu, ou=MicroGrid, o=Grid"));
    extra.add("objectclass", "GridComputeResource");
    extra.add("Is_Virtual_Resource", "Yes");
    client.add(extra);
    removed = client.remove(extra.dn());
    after_remove = static_cast<int>(client
                                        .search("ou=MicroGrid, o=Grid", gis::Scope::Subtree,
                                                "(hn=new.ucsd.edu)")
                                        .size());
    client.close();
  });
  p.run();
  EXPECT_EQ(found, 8);  // 4 hosts + 4 links
  EXPECT_TRUE(removed);
  EXPECT_EQ(after_remove, 0);
}

// -------------------------------------------------------------------- GRAM --

namespace {

grid::ExecutableRegistry makeRegistry() {
  grid::ExecutableRegistry reg;
  reg.add("sleepy", [](grid::JobContext& jc) {
    jc.os.sleep(0.05);
    return 0;
  });
  reg.add("compute", [](grid::JobContext& jc) {
    jc.os.compute(533e5);  // 0.1 s on an Alpha
    return 0;
  });
  reg.add("exit3", [](grid::JobContext&) { return 3; });
  reg.add("crasher", [](grid::JobContext&) -> int { throw std::runtime_error("segfault"); });
  return reg;
}

}  // namespace

TEST(Gram, SubmitWaitDone) {
  auto cfg = topologies::alphaCluster();
  ReferencePlatform p(cfg);
  auto registry = makeRegistry();
  p.spawnOn("vm0.ucsd.edu", "gatekeeper",
            [&](vos::HostContext& ctx) { grid::serveGatekeeper(ctx, registry); });
  grid::JobStatus st;
  p.spawnOn("vm1.ucsd.edu", "client", [&](vos::HostContext& ctx) {
    ctx.sleep(0.01);
    grid::GramClient client(ctx);
    grid::Rsl rsl;
    rsl.set("executable", "sleepy");
    rsl.set("count", "2");
    const std::string contact = client.submit("vm0.ucsd.edu", rsl);
    st = client.wait(contact);
  });
  p.run();
  EXPECT_EQ(st.state, grid::JobState::Done);
  EXPECT_EQ(st.exit_code, 0);
}

TEST(Gram, NonZeroExitPropagates) {
  auto cfg = topologies::alphaCluster();
  ReferencePlatform p(cfg);
  auto registry = makeRegistry();
  p.spawnOn("vm0.ucsd.edu", "gatekeeper",
            [&](vos::HostContext& ctx) { grid::serveGatekeeper(ctx, registry); });
  grid::JobStatus st;
  p.spawnOn("vm1.ucsd.edu", "client", [&](vos::HostContext& ctx) {
    ctx.sleep(0.01);
    grid::GramClient client(ctx);
    grid::Rsl rsl;
    rsl.set("executable", "exit3");
    st = client.wait(client.submit("vm0.ucsd.edu", rsl));
  });
  p.run();
  EXPECT_EQ(st.state, grid::JobState::Done);
  EXPECT_EQ(st.exit_code, 3);
}

TEST(Gram, CrashingJobFails) {
  auto cfg = topologies::alphaCluster();
  ReferencePlatform p(cfg);
  auto registry = makeRegistry();
  p.spawnOn("vm0.ucsd.edu", "gatekeeper",
            [&](vos::HostContext& ctx) { grid::serveGatekeeper(ctx, registry); });
  grid::JobStatus st;
  p.spawnOn("vm1.ucsd.edu", "client", [&](vos::HostContext& ctx) {
    ctx.sleep(0.01);
    grid::GramClient client(ctx);
    grid::Rsl rsl;
    rsl.set("executable", "crasher");
    st = client.wait(client.submit("vm0.ucsd.edu", rsl));
  });
  p.run();
  EXPECT_EQ(st.state, grid::JobState::Failed);
  EXPECT_NE(st.error.find("segfault"), std::string::npos);
}

TEST(Gram, UnknownExecutableFails) {
  auto cfg = topologies::alphaCluster();
  ReferencePlatform p(cfg);
  auto registry = makeRegistry();
  p.spawnOn("vm0.ucsd.edu", "gatekeeper",
            [&](vos::HostContext& ctx) { grid::serveGatekeeper(ctx, registry); });
  grid::JobStatus st;
  p.spawnOn("vm1.ucsd.edu", "client", [&](vos::HostContext& ctx) {
    ctx.sleep(0.01);
    grid::GramClient client(ctx);
    grid::Rsl rsl;
    rsl.set("executable", "ghost");
    st = client.wait(client.submit("vm0.ucsd.edu", rsl));
  });
  p.run();
  EXPECT_EQ(st.state, grid::JobState::Failed);
}

TEST(Gram, AuthenticationRejectsWrongSubject) {
  auto cfg = topologies::alphaCluster();
  ReferencePlatform p(cfg);
  auto registry = makeRegistry();
  grid::GatekeeperOptions opts;
  opts.required_subject = "/O=Grid/CN=alice";
  p.spawnOn("vm0.ucsd.edu", "gatekeeper",
            [&, opts](vos::HostContext& ctx) { grid::serveGatekeeper(ctx, registry, opts); });
  bool rejected = false;
  bool accepted = false;
  p.spawnOn("vm1.ucsd.edu", "client", [&](vos::HostContext& ctx) {
    ctx.sleep(0.01);
    grid::Rsl rsl;
    rsl.set("executable", "sleepy");
    grid::GramClient mallory(ctx, "/O=Grid/CN=mallory");
    try {
      mallory.submit("vm0.ucsd.edu", rsl);
    } catch (const mg::Error&) {
      rejected = true;
    }
    grid::GramClient alice(ctx, "/O=Grid/CN=alice");
    accepted = (alice.wait(alice.submit("vm0.ucsd.edu", rsl)).state == grid::JobState::Done);
  });
  p.run();
  EXPECT_TRUE(rejected);
  EXPECT_TRUE(accepted);
}

TEST(Gram, MaxMemoryEnforced) {
  VirtualGridConfig cfg;
  cfg.addPhysical("p", 533e6);
  cfg.addHost("small", "1.1.1.1", 533e6, 1 << 20, "p");  // 1 MB host
  cfg.addHost("client", "1.1.1.2", 533e6, 1 << 30, "p");
  cfg.addRouter("sw");
  cfg.addLink("l0", "small", "sw", 100e6, 1e-4);
  cfg.addLink("l1", "client", "sw", 100e6, 1e-4);
  ReferencePlatform p(cfg);
  auto registry = makeRegistry();
  p.spawnOn("small", "gatekeeper",
            [&](vos::HostContext& ctx) { grid::serveGatekeeper(ctx, registry); });
  grid::JobStatus st;
  p.spawnOn("client", "client", [&](vos::HostContext& ctx) {
    ctx.sleep(0.01);
    grid::GramClient client(ctx);
    grid::Rsl rsl;
    rsl.set("executable", "sleepy");
    rsl.set("maxMemory", "4MB");  // exceeds the 1 MB host
    st = client.wait(client.submit("small", rsl));
  });
  p.run();
  EXPECT_EQ(st.state, grid::JobState::Failed);
  EXPECT_NE(st.error.find("out of memory"), std::string::npos);
}

TEST(Rsl, ParseAndRoundTrip) {
  auto rsl = grid::Rsl::parse(
      "&(executable=npb.ep)(count=4)(arguments=classA trace)"
      "(maxMemory=100MBytes)(environment=(MG_JOB_SIZE 4)(MG_RANK_BASE 0))");
  EXPECT_EQ(rsl.executable(), "npb.ep");
  EXPECT_EQ(rsl.count(), 4);
  EXPECT_EQ(rsl.arguments(), (std::vector<std::string>{"classA", "trace"}));
  EXPECT_EQ(rsl.environment().at("MG_JOB_SIZE"), "4");
  auto back = grid::Rsl::parse(rsl.str());
  EXPECT_EQ(back.get("maxmemory"), "100MBytes");
  EXPECT_EQ(back.environment().at("MG_RANK_BASE"), "0");
}

TEST(Rsl, MultiRequest) {
  auto multi = grid::Rsl::parseMulti("+&(executable=a)(count=1)&(executable=b)(count=2)");
  ASSERT_EQ(multi.size(), 2u);
  EXPECT_EQ(multi[0].executable(), "a");
  EXPECT_EQ(multi[1].count(), 2);
  EXPECT_EQ(grid::Rsl::parseMulti("&(executable=x)").size(), 1u);
}

TEST(Rsl, MalformedThrows) {
  EXPECT_THROW(grid::Rsl::parse("(executable=x)"), mg::ParseError);
  EXPECT_THROW(grid::Rsl::parse("&(executable=x"), mg::ParseError);
  EXPECT_THROW(grid::Rsl::parse("&(=x)"), mg::ParseError);
  EXPECT_THROW(grid::Rsl::parse("&(environment=(A 1)"), mg::ParseError);
  EXPECT_THROW(grid::Rsl::parseMulti("+"), mg::ParseError);
}

// ---------------------------------------------------------------- Launcher --

namespace {

/// A small vmpi program: ranks allreduce their ranks and verify the sum.
int allreduceJob(grid::JobContext& jc) {
  auto comm = vmpi::Comm::init(jc);
  double v = comm->rank();
  comm->allreduce(&v, 1, vmpi::Op::Sum);
  const int n = comm->size();
  comm->finalize();
  return (v == n * (n - 1) / 2.0) ? 0 : 1;
}

}  // namespace

TEST(Launcher, EndToEndCoallocatedVmpiJob) {
  auto cfg = topologies::alphaCluster();
  ReferencePlatform platform(cfg);
  grid::ExecutableRegistry registry;
  registry.add("allreduce", allreduceJob);
  Launcher launcher(platform, registry);
  launcher.startServices(&cfg, "AlphaCluster");
  auto result = launcher.run("allreduce", "", {{"vm0.ucsd.edu", 1},
                                               {"vm1.ucsd.edu", 1},
                                               {"vm2.ucsd.edu", 1},
                                               {"vm3.ucsd.edu", 1}});
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_GT(result.virtual_seconds, 0.0);
  // The GIS was populated with the published records.
  EXPECT_GT(launcher.directory().size(), 0u);
}

TEST(Launcher, MultipleRanksPerHostThroughGram) {
  auto cfg = topologies::alphaCluster();
  ReferencePlatform platform(cfg);
  grid::ExecutableRegistry registry;
  registry.add("allreduce", allreduceJob);
  Launcher launcher(platform, registry);
  launcher.startServices();
  auto result = launcher.run("allreduce", "", {{"vm0.ucsd.edu", 2}, {"vm1.ucsd.edu", 2}});
  EXPECT_TRUE(result.ok) << result.error;
}

TEST(Launcher, RunsOnMicroGridToo) {
  auto cfg = topologies::alphaCluster();
  MicroGridPlatform platform(cfg);
  grid::ExecutableRegistry registry;
  registry.add("allreduce", allreduceJob);
  Launcher launcher(platform, registry);
  launcher.startServices();
  auto result = launcher.run("allreduce", "", {{"vm0.ucsd.edu", 1},
                                               {"vm1.ucsd.edu", 1},
                                               {"vm2.ucsd.edu", 1},
                                               {"vm3.ucsd.edu", 1}});
  EXPECT_TRUE(result.ok) << result.error;
}

// --------------------------------------------- cross-platform validation --

namespace {

/// A compute+communicate kernel, the validation workhorse: returns the
/// virtual wall time measured by rank 0.
int pingComputeJob(grid::JobContext& jc, double* out_time) {
  auto comm = vmpi::Comm::init(jc);
  comm->barrier();
  const double t0 = comm->wtime();
  std::vector<double> buf(4096);
  for (int iter = 0; iter < 10; ++iter) {
    jc.os.compute(20e6);
    const int peer = comm->rank() ^ 1;
    if (peer < comm->size()) {
      comm->sendRecv(peer, 1, buf.data(), buf.size() * sizeof(double), peer, 1, buf.data(),
                     buf.size() * sizeof(double));
    }
    comm->allreduce(buf.data(), 16, vmpi::Op::Sum);
  }
  comm->barrier();
  if (comm->rank() == 0 && out_time) *out_time = comm->wtime() - t0;
  comm->finalize();
  return 0;
}

double runPingCompute(Platform& platform) {
  grid::ExecutableRegistry registry;
  double measured = 0;
  registry.add("kernel", [&measured](grid::JobContext& jc) {
    return pingComputeJob(jc, &measured);
  });
  Launcher launcher(platform, registry);
  launcher.startServices();
  auto result = launcher.run("kernel", "", {{"vm0.ucsd.edu", 1},
                                            {"vm1.ucsd.edu", 1},
                                            {"vm2.ucsd.edu", 1},
                                            {"vm3.ucsd.edu", 1}});
  EXPECT_TRUE(result.ok) << result.error;
  return measured;
}

}  // namespace

TEST(Validation, MicroGridTracksReferenceWithinTolerance) {
  auto cfg = topologies::alphaCluster();
  ReferencePlatform ref(cfg);
  const double t_ref = runPingCompute(ref);
  MicroGridPlatform mg_platform(cfg);
  const double t_mg = runPingCompute(mg_platform);
  ASSERT_GT(t_ref, 0);
  ASSERT_GT(t_mg, 0);
  // The paper reports 2-4% total-runtime error for NPB Class A; this small
  // kernel synchronizes more often, so allow a wider (but still tight) band.
  EXPECT_NEAR(t_mg / t_ref, 1.0, 0.15) << "ref " << t_ref << " vs mgrid " << t_mg;
}

TEST(Validation, DeterministicAcrossRuns) {
  auto once = [] {
    auto cfg = topologies::alphaCluster();
    MicroGridPlatform platform(cfg);
    return runPingCompute(platform);
  };
  EXPECT_DOUBLE_EQ(once(), once());
}
