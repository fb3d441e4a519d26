// Cross-module integration tests: failure injection with rerouting,
// config-file-driven end-to-end runs, concurrent GIS clients, and
// full-stack error paths.
#include <gtest/gtest.h>

#include "core/launcher.h"
#include "core/microgrid_platform.h"
#include "core/reference_platform.h"
#include "core/topologies.h"
#include "npb/npb.h"
#include "gis/schema.h"
#include "gis/service.h"
#include "net/tcp.h"
#include "tcp_backlog.h"
#include "vmpi/comm.h"

using namespace mg;
namespace st = mg::sim;

namespace {
std::vector<grid::AllocationPart> onePerHostHelper(const core::Platform& platform) {
  std::vector<grid::AllocationPart> parts;
  for (const auto& h : platform.mapper().hosts()) parts.push_back({h.hostname, 1});
  return parts;
}
}  // namespace

// ------------------------------------------------- failure injection ------

TEST(FailureInjection, TcpSurvivesLinkFailureViaBackupRoute) {
  // Primary direct link plus a two-hop backup; the direct link dies mid
  // transfer. Routing recomputes and retransmissions take the backup path —
  // the stream stays intact.
  st::Simulator sim;
  net::Topology topo;
  auto a = topo.addHost("a");
  auto b = topo.addHost("b");
  auto r = topo.addRouter("r");
  net::LinkId direct = topo.addLink("direct", a, b, 100e6, st::fromSeconds(1e-3));
  topo.addLink("backup1", a, r, 100e6, st::fromSeconds(5e-3));
  topo.addLink("backup2", r, b, 100e6, st::fromSeconds(5e-3));
  net::Network net(sim, std::move(topo), {});
  net::TcpStack sa(net, a), sb(net, b);

  const size_t kSize = 1 << 20;
  std::vector<std::uint8_t> data(kSize);
  for (size_t i = 0; i < kSize; ++i) data[i] = static_cast<std::uint8_t>(i * 7);
  std::vector<std::uint8_t> received(kSize);
  bool done = false;

  sim.spawn("server", [&] {
    auto listener = mgtest::listenOn(sb, 80);
    auto conn = listener->accept();
    conn->recvExact(received.data(), kSize);
    done = true;
  });
  sim.spawn("client", [&] {
    auto conn = sa.connect(b, 80);
    conn->send(data.data(), kSize);
    conn->close();
  });
  sim.spawn("saboteur", [&] {
    sim.delay(20 * st::kMillisecond);  // mid-transfer
    net.setLinkUp(direct, false);
  });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(received, data);
  EXPECT_GT(sim.metrics().counterValue("net.packet.dropped_down"), 0);
}

TEST(FailureInjection, TcpTransferCompletesAfterLinkFlap) {
  // Down and back up: traffic stalls (RTO backoff) then resumes on the
  // restored link — no data corruption.
  st::Simulator sim;
  net::Topology topo;
  auto a = topo.addHost("a");
  auto b = topo.addHost("b");
  net::LinkId only = topo.addLink("only", a, b, 100e6, st::fromSeconds(1e-3));
  net::Network net(sim, std::move(topo), {});
  net::TcpStack sa(net, a), sb(net, b);

  const size_t kSize = 256 * 1024;
  std::vector<std::uint8_t> data(kSize, 0x3c);
  std::vector<std::uint8_t> received(kSize);
  st::SimTime finished = -1;
  sim.spawn("server", [&] {
    auto listener = mgtest::listenOn(sb, 80);
    auto conn = listener->accept();
    conn->recvExact(received.data(), kSize);
    finished = sim.now();
  });
  sim.spawn("client", [&] {
    auto conn = sa.connect(b, 80);
    conn->send(data.data(), kSize);
    conn->close();
  });
  sim.spawn("flapper", [&] {
    sim.delay(5 * st::kMillisecond);
    net.setLinkUp(only, false);
    sim.delay(500 * st::kMillisecond);
    net.setLinkUp(only, true);
  });
  sim.run();
  EXPECT_EQ(received, data);
  EXPECT_GT(finished, st::fromSeconds(0.5));  // the outage is visible
}

TEST(FailureInjection, LossyWanStillCompletesNpb) {
  // 1% loss on the WAN bottleneck: TCP recovers, the job still verifies.
  core::topologies::VbnsParams params;
  auto cfg = core::topologies::vbns(params);
  // Rebuild with loss on the bottleneck by direct construction.
  core::VirtualGridConfig lossy;
  lossy.addPhysical("p0", 533e6);
  lossy.addPhysical("p1", 533e6);
  lossy.addHost("a.site", "1.1.1.1", 533e6, 1ll << 30, "p0");
  lossy.addHost("b.site", "1.2.2.1", 533e6, 1ll << 30, "p1");
  lossy.addRouter("wan");
  lossy.addLink("l0", "a.site", "wan", 100e6, 10e-3, 256 * 1024, 0.01);
  lossy.addLink("l1", "wan", "b.site", 100e6, 10e-3, 256 * 1024, 0.01);
  core::MicroGridPlatform platform(lossy);
  grid::ExecutableRegistry registry;
  npb::ResultSink sink;
  npb::registerNpb(registry, sink);
  core::Launcher launcher(platform, registry);
  launcher.startServices();
  auto result = launcher.run("npb.mg", "S", {{"a.site", 1}, {"b.site", 1}});
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(sink.allVerified());
  EXPECT_GT(platform.simulator().metrics().counterValue("net.packet.dropped_loss"), 0);
}

// ------------------------------------------------- config-file driven -----

TEST(ConfigDriven, FullPipelineFromIniText) {
  auto cfg = core::VirtualGridConfig::fromConfig(util::Config::parse(R"(
# A two-host virtual grid on one physical machine.
[physical ws]
cpu = 1GHz

[host left.grid]
ip = 10.0.0.1
cpu = 500MHz
memory = 256MB
map = ws

[host right.grid]
ip = 10.0.0.2
cpu = 500MHz
memory = 256MB
map = ws

[node hub]
kind = router

[link l0]
a = left.grid
b = hub
bandwidth = 100Mbps
latency = 0.1ms

[link l1]
a = right.grid
b = hub
bandwidth = 100Mbps
latency = 0.1ms
)"));
  EXPECT_NEAR(core::SimulationRate::compute(cfg).max_feasible, 1.0, 1e-9);
  core::MicroGridPlatform platform(cfg);
  grid::ExecutableRegistry registry;
  registry.add("probe", [](grid::JobContext& jc) {
    auto comm = vmpi::Comm::init(jc);
    double v = 1;
    comm->allreduce(&v, 1, vmpi::Op::Sum);
    comm->finalize();
    return v == 2.0 ? 0 : 1;
  });
  core::Launcher launcher(platform, registry);
  launcher.startServices(&cfg, "IniConfig");
  auto result = launcher.run("probe", "", {{"left.grid", 1}, {"right.grid", 1}});
  EXPECT_TRUE(result.ok) << result.error;
  // The GIS carries the published Fig 3 records for this configuration.
  auto hosts = gis::virtualHostsForConfig(launcher.directory(),
                                          gis::Dn::parse("ou=MicroGrid, o=Grid"), "IniConfig");
  EXPECT_EQ(hosts.size(), 2u);
  EXPECT_EQ(hosts[0].get("Mapped_Physical_Resource"), "ws");
}

// ------------------------------------------------------- GIS service ------

TEST(GisIntegration, ManyConcurrentClients) {
  auto cfg = core::topologies::alphaCluster();
  core::ReferencePlatform platform(cfg);
  gis::Directory dir;
  cfg.toGis(dir, gis::Dn::parse("ou=MicroGrid, o=Grid"), "AlphaCluster");
  platform.spawnOn("vm0.ucsd.edu", "gis-server",
                   [&](vos::HostContext& ctx) { gis::serveDirectory(ctx, dir); });
  int successes = 0;
  for (int c = 0; c < 8; ++c) {
    const std::string host = "vm" + std::to_string(1 + c % 3) + ".ucsd.edu";
    platform.spawnOn(host, "client" + std::to_string(c), [&, c](vos::HostContext& ctx) {
      ctx.sleep(0.001 * c);
      gis::GisClient client(ctx, "vm0.ucsd.edu");
      for (int q = 0; q < 5; ++q) {
        auto recs = client.search("ou=MicroGrid, o=Grid", gis::Scope::Subtree,
                                  "(Is_Virtual_Resource=Yes)");
        if (recs.size() == 8) ++successes;
      }
      client.close();
    });
  }
  platform.run();
  EXPECT_EQ(successes, 40);
}

TEST(GisIntegration, DiscoveryDrivenPlacement) {
  // A scheduler-like client discovers hosts through the GIS and submits to
  // the fastest one — resource discovery feeding resource management.
  core::VirtualGridConfig cfg;
  cfg.addPhysical("p0", 1e9);
  cfg.addPhysical("p1", 1e9);
  cfg.addHost("slow.grid", "1.0.0.1", 100e6, 1ll << 30, "p0");
  cfg.addHost("fast.grid", "1.0.0.2", 900e6, 1ll << 30, "p1");
  cfg.addRouter("hub");
  cfg.addLink("l0", "slow.grid", "hub", 100e6, 1e-4);
  cfg.addLink("l1", "fast.grid", "hub", 100e6, 1e-4);
  core::ReferencePlatform platform(cfg);
  grid::ExecutableRegistry registry;
  auto ran_on = std::make_shared<std::string>();
  registry.add("job", [ran_on](grid::JobContext& jc) {
    *ran_on = jc.os.hostname();
    return 0;
  });
  core::Launcher launcher(platform, registry);
  launcher.startServices(&cfg, "Placement");

  auto done = std::make_shared<bool>(false);
  platform.spawnOn("slow.grid", "scheduler", [&, done](vos::HostContext& ctx) {
    ctx.sleep(0.01);
    gis::GisClient gis_client(ctx, launcher.gisHost());
    auto records = gis_client.search("ou=MicroGrid, o=Grid", gis::Scope::Subtree,
                                     "(objectclass=GridComputeResource)");
    std::string best;
    double best_ops = 0;
    for (const auto& rec : records) {
      const auto info = gis::hostInfoFromRecord(rec);
      if (info.cpu_ops > best_ops) {
        best_ops = info.cpu_ops;
        best = info.hostname;
      }
    }
    grid::GramClient gram(ctx);
    grid::Rsl rsl;
    rsl.set("executable", "job");
    auto st = gram.wait(gram.submit(best, rsl));
    *done = (st.state == grid::JobState::Done);
  });
  platform.run();
  EXPECT_TRUE(*done);
  EXPECT_EQ(*ran_on, "fast.grid");
}

// ----------------------------------------------------- error paths --------

TEST(ErrorPaths, LauncherRejectsUnknownHostInParts) {
  auto cfg = core::topologies::alphaCluster();
  core::ReferencePlatform platform(cfg);
  grid::ExecutableRegistry registry;
  registry.add("noop", [](grid::JobContext&) { return 0; });
  core::Launcher launcher(platform, registry);
  launcher.startServices();
  // An unknown part host fails inside the submitting client (name
  // resolution), yielding a failed result...
  auto result = launcher.run("noop", "", {{"ghost.host", 1}}, {}, "vm0.ucsd.edu");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("ghost.host"), std::string::npos);
  // ...while an unknown *client* host is a caller bug and throws.
  EXPECT_THROW(launcher.run("noop", "", {{"ghost.host", 1}}), vos::UnknownHost);
}

TEST(ErrorPaths, CoallocationFailsAtomicallyOnOneBadPart) {
  // One part names a missing executable variant via count=0; the result
  // reports failure while good parts still ran.
  auto cfg = core::topologies::alphaCluster();
  core::ReferencePlatform platform(cfg);
  grid::ExecutableRegistry registry;
  registry.add("failer", [](grid::JobContext& jc) {
    return jc.os.hostname() == "vm1.ucsd.edu" ? 9 : 0;
  });
  core::Launcher launcher(platform, registry);
  launcher.startServices();
  auto result = launcher.run("failer", "", {{"vm0.ucsd.edu", 1}, {"vm1.ucsd.edu", 1}});
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.exit_code, 9);
}

TEST(ErrorPaths, RunWithoutServicesThrows) {
  auto cfg = core::topologies::alphaCluster();
  core::ReferencePlatform platform(cfg);
  grid::ExecutableRegistry registry;
  core::Launcher launcher(platform, registry);
  EXPECT_THROW(launcher.run("x", "", {{"vm0.ucsd.edu", 1}}), mg::UsageError);
  launcher.startServices();
  EXPECT_THROW(launcher.startServices(), mg::UsageError);
  EXPECT_THROW(launcher.run("x", "", {}), mg::UsageError);
}

TEST(ErrorPaths, SpawnOnUnknownHostThrows) {
  auto cfg = core::topologies::alphaCluster();
  core::MicroGridPlatform mgrid(cfg);
  core::ReferencePlatform pgrid(cfg);
  EXPECT_THROW(mgrid.spawnOn("nope", "p", [](vos::HostContext&) {}), vos::UnknownHost);
  EXPECT_THROW(pgrid.spawnOn("nope", "p", [](vos::HostContext&) {}), vos::UnknownHost);
}

// ------------------------------------------------- mixed workloads --------

TEST(MixedWorkload, TwoJobsShareTheGridConcurrently) {
  // Two co-allocated jobs overlap on the same virtual hosts; both complete
  // and the CPU fractions re-divide between their processes.
  auto cfg = core::topologies::alphaCluster();
  core::MicroGridPlatform platform(cfg);
  grid::ExecutableRegistry registry;
  npb::ResultSink sink;
  npb::registerNpb(registry, sink);
  core::Launcher launcher(platform, registry);
  launcher.startServices();

  // Submit the second job from a separate client process while the first
  // runs: both run() calls share one simulation.
  auto second = std::make_shared<core::LaunchResult>();
  platform.spawnOn("vm2.ucsd.edu", "client2", [second](vos::HostContext& ctx) {
    ctx.sleep(0.05);
    grid::Coallocator co(ctx);
    // Use different vmpi ports than the first job to avoid clashes.
    auto r = co.run("npb.ep", "S", {{"vm0.ucsd.edu", 1}, {"vm1.ucsd.edu", 1}},
                    {{"MG_PORT_BASE", "7000"}});
    second->ok = r.ok;
    second->error = r.error;
  });
  auto first = launcher.run("npb.ep", "S", {{"vm0.ucsd.edu", 1},
                                            {"vm1.ucsd.edu", 1},
                                            {"vm2.ucsd.edu", 1},
                                            {"vm3.ucsd.edu", 1}});
  EXPECT_TRUE(first.ok) << first.error;
  EXPECT_TRUE(second->ok) << second->error;
  EXPECT_EQ(sink.results().size(), 6u);
  EXPECT_TRUE(sink.allVerified());
}

TEST(MixedWorkload, SequentialRunsOnOnePlatformAreIndependent) {
  auto cfg = core::topologies::alphaCluster();
  core::ReferencePlatform platform(cfg);
  grid::ExecutableRegistry registry;
  npb::ResultSink sink;
  npb::registerNpb(registry, sink);
  core::Launcher launcher(platform, registry);
  launcher.startServices();
  auto r1 = launcher.run("npb.is", "S", onePerHostHelper(platform));
  sink.clear();
  auto r2 = launcher.run("npb.is", "S", onePerHostHelper(platform));
  EXPECT_TRUE(r1.ok);
  EXPECT_TRUE(r2.ok);
  EXPECT_TRUE(sink.allVerified());
}

// ------------------------------------------------------------ scale -------

TEST(Scale, SixteenHostClusterRunsEpAndMg) {
  // The paper's near-term goal: "scaling to dozens of machines". 16 virtual
  // hosts, full GRAM path, on the MicroGrid platform.
  core::topologies::AlphaClusterParams params;
  params.hosts = 16;
  core::MicroGridPlatform platform(core::topologies::alphaCluster(params));
  grid::ExecutableRegistry registry;
  npb::ResultSink sink;
  npb::registerNpb(registry, sink);
  core::Launcher launcher(platform, registry);
  launcher.startServices();
  for (const char* exe : {"npb.ep", "npb.mg"}) {
    sink.clear();
    auto result = launcher.run(exe, "S", onePerHostHelper(platform));
    EXPECT_TRUE(result.ok) << exe << ": " << result.error;
    EXPECT_EQ(sink.results().size(), 16u);
    EXPECT_TRUE(sink.allVerified()) << exe;
  }
}
