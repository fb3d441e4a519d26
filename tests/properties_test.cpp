// Property-style sweeps over network and platform parameters: invariants
// that must hold across the whole configuration space, not just the presets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>
#include <string>
#include <tuple>
#include <vector>

#include "core/microgrid_platform.h"
#include "core/reference_platform.h"
#include "core/topologies.h"
#include "net/network.h"
#include "net/tcp.h"
#include "net/topology.h"
#include "tcp_backlog.h"
#include "util/rng.h"
#include "util/strings.h"
#include "vmpi/comm.h"

using namespace mg;
namespace st = mg::sim;

// --------------------------------------------------- TCP throughput law ---

// Across link speeds and latencies, measured TCP goodput must approach
// min(protocol-efficiency * bandwidth, window / RTT).
class TcpGoodputLaw : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(TcpGoodputLaw, GoodputMatchesTheory) {
  auto [bw_bps, latency_s] = GetParam();
  st::Simulator sim;
  net::Topology topo;
  auto a = topo.addHost("a");
  auto b = topo.addHost("b");
  topo.addLink("l", a, b, bw_bps, st::fromSeconds(latency_s), 1 << 20);
  net::Network net(sim, std::move(topo), {});
  net::TcpStack sa(net, a), sb(net, b);

  const size_t kSize = 4 << 20;
  st::SimTime start = 0, end = 0;
  sim.spawn("server", [&] {
    auto listener = mgtest::listenOn(sb, 80);
    auto conn = listener->accept();
    std::vector<std::uint8_t> sink(kSize);
    start = sim.now();
    conn->recvExact(sink.data(), kSize);
    end = sim.now();
  });
  sim.spawn("client", [&] {
    auto conn = sa.connect(b, 80);
    std::vector<std::uint8_t> data(1 << 16, 0xcd);
    for (size_t sent = 0; sent < kSize; sent += data.size()) conn->send(data.data(), data.size());
    conn->close();
  });
  sim.run();

  const double goodput = kSize * 8.0 / st::toSeconds(end - start);  // bits/s
  const double efficiency_bound = bw_bps * 1460.0 / 1538.0;
  // Window bound: 1 MB receive buffer over the round trip.
  const double rtt = 2.0 * latency_s + 1e-3;  // plus stack/serialization slack
  const double window_bound = (1 << 20) * 8.0 / rtt;
  const double bound = std::min(efficiency_bound, window_bound);
  EXPECT_LT(goodput, bound * 1.02);
  EXPECT_GT(goodput, bound * 0.5) << "bw " << bw_bps << " lat " << latency_s;
}

INSTANTIATE_TEST_SUITE_P(
    LinkSpace, TcpGoodputLaw,
    ::testing::Values(std::tuple{10e6, 1e-3}, std::tuple{100e6, 0.1e-3},
                      std::tuple{100e6, 5e-3}, std::tuple{622e6, 1e-3},
                      std::tuple{1.2e9, 0.05e-3}));

// ------------------------------------------------ conservation property ---

// Whatever the topology and loss rate, delivered payload bytes never exceed
// injected payload bytes, and every injected packet is accounted for as
// delivered or dropped.
class PacketConservation : public ::testing::TestWithParam<double> {};

TEST_P(PacketConservation, EveryPacketAccounted) {
  const double loss = GetParam();
  st::Simulator sim;
  net::Topology topo;
  auto a = topo.addHost("a");
  auto r1 = topo.addRouter("r1");
  auto r2 = topo.addRouter("r2");
  auto b = topo.addHost("b");
  topo.addLink("l0", a, r1, 10e6, st::fromSeconds(1e-3), 1 << 20, loss);
  topo.addLink("l1", r1, r2, 5e6, st::fromSeconds(1e-3), 1 << 20, loss);
  topo.addLink("l2", r2, b, 10e6, st::fromSeconds(1e-3), 1 << 20, loss);
  net::Network net(sim, std::move(topo), {});
  std::int64_t delivered_payload = 0;
  net.attachHost(b, [&](net::Packet&& p) { delivered_payload += static_cast<std::int64_t>(p.payload.size()); });

  const int kPackets = 500;
  std::int64_t injected_payload = 0;
  for (int i = 0; i < kPackets; ++i) {
    net::Packet p;
    p.src = a;
    p.dst = b;
    p.payload.resize(static_cast<size_t>(100 + (i * 37) % 1300));
    injected_payload += static_cast<std::int64_t>(p.payload.size());
    net.send(std::move(p));
  }
  sim.run();
  const auto& m = sim.metrics();
  EXPECT_EQ(m.counterValue("net.packet.sent"), kPackets);
  EXPECT_EQ(m.counterValue("net.packet.delivered") + m.counterValue("net.packet.dropped_queue") +
                m.counterValue("net.packet.dropped_loss") +
                m.counterValue("net.packet.dropped_down"),
            kPackets);
  EXPECT_LE(delivered_payload, injected_payload);
  EXPECT_EQ(delivered_payload, m.counterValue("net.packet.bytes_delivered"));
  if (loss == 0.0) {
    // No random loss and queues big enough at this rate: drops only from
    // queue overflow, which the slow middle link can cause.
    EXPECT_EQ(m.counterValue("net.packet.dropped_loss"), 0);
  } else {
    EXPECT_GT(m.counterValue("net.packet.dropped_loss"), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(LossRates, PacketConservation, ::testing::Values(0.0, 0.01, 0.1, 0.3));

// ----------------------------------------- compute-time virtualization ----

// For any (virtual speed, physical speed, rate) combination, a sustained
// compute of W ops must take ~W / V virtual seconds on the MicroGrid.
class ComputeVirtualization
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(ComputeVirtualization, VirtualTimeEqualsWorkOverSpeed) {
  auto [virt_ops, phys_ops, slowdown] = GetParam();
  core::VirtualGridConfig cfg;
  cfg.addPhysical("p", phys_ops);
  cfg.addHost("v", "1.1.1.1", virt_ops, 1 << 20, "p");
  cfg.addRouter("sw");
  cfg.addLink("l", "v", "sw", 100e6, 1e-4);
  core::MicroGridOptions opts;
  opts.slowdown = slowdown;
  core::MicroGridPlatform platform(cfg, opts);
  const double work = virt_ops * 2.0;  // two virtual seconds of work
  double t = -1;
  platform.spawnOn("v", "w", [&](vos::HostContext& ctx) {
    ctx.compute(work);
    t = ctx.wallTime();
  });
  platform.run();
  EXPECT_NEAR(t, 2.0, 0.07) << "V=" << virt_ops << " P=" << phys_ops << " slow=" << slowdown;
}

INSTANTIATE_TEST_SUITE_P(Speeds, ComputeVirtualization,
                         ::testing::Values(std::tuple{533e6, 533e6, 1.0},   // matched
                                           std::tuple{100e6, 533e6, 1.0},   // slow virtual
                                           std::tuple{2e9, 533e6, 1.0},     // fast virtual
                                           std::tuple{533e6, 533e6, 4.0},   // slowed emulation
                                           std::tuple{300e6, 1e9, 2.0}));

// ------------------------------------------------ reference agreement -----

// For a pure compute + single transfer workload, the two platforms must
// agree across bandwidths (the network models differ only in protocol-level
// detail).
class PlatformAgreement : public ::testing::TestWithParam<double> {};

TEST_P(PlatformAgreement, BulkTransferTimesAgree) {
  const double bw = GetParam();
  auto makeCfg = [&] {
    core::topologies::AlphaClusterParams params;
    params.hosts = 2;
    params.bandwidth_bps = bw;
    return core::topologies::alphaCluster(params);
  };
  auto timeOn = [&](core::Platform& platform) {
    double t = -1;
    platform.spawnOn("vm0.ucsd.edu", "server", [&](vos::HostContext& ctx) {
      auto listener = ctx.listen(80);
      auto sock = listener->accept();
      std::vector<std::uint8_t> sink(1 << 20);
      sock->recvExact(sink.data(), sink.size());
      t = ctx.wallTime();
    });
    platform.spawnOn("vm1.ucsd.edu", "client", [&](vos::HostContext& ctx) {
      ctx.sleep(0.001);
      auto sock = ctx.connect("vm0.ucsd.edu", 80);
      std::vector<std::uint8_t> data(1 << 20, 1);
      sock->send(data.data(), data.size());
      sock->close();
    });
    platform.run();
    return t;
  };
  auto ref_cfg = makeCfg();
  core::ReferencePlatform ref(ref_cfg);
  const double t_ref = timeOn(ref);
  auto emu_cfg = makeCfg();
  core::MicroGridPlatform emu(emu_cfg);
  const double t_emu = timeOn(emu);
  EXPECT_NEAR(t_emu / t_ref, 1.0, 0.25) << "bw " << bw;
}

INSTANTIATE_TEST_SUITE_P(Bandwidths, PlatformAgreement,
                         ::testing::Values(10e6, 100e6, 622e6, 1.2e9));

// ----------------------------------------------------- same-seed runs -----

// Determinism property (DESIGN.md "Observability"): the kernel is logically
// single-threaded and every random draw is seeded, so two identically
// configured runs must agree event-for-event — identical event counts and
// byte-identical metrics snapshots, across seeds and loss rates.
class SameSeedDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SameSeedDeterminism, EventCountsAndSnapshotsMatch) {
  auto runOnce = [&](std::uint64_t seed) {
    st::Simulator sim;
    net::Topology topo;
    auto a = topo.addHost("a");
    auto r = topo.addRouter("r");
    auto b = topo.addHost("b");
    topo.addLink("l0", a, r, 10e6, st::fromSeconds(1e-3), 64 << 10, 0.05);
    topo.addLink("l1", r, b, 5e6, st::fromSeconds(1e-3), 64 << 10, 0.05);
    net::NetworkOptions nopts;
    nopts.seed = seed;
    net::Network net(sim, std::move(topo), nopts);
    net.attachHost(b, [](net::Packet&&) {});
    for (int i = 0; i < 300; ++i) {
      net::Packet p;
      p.src = a;
      p.dst = b;
      p.payload.resize(static_cast<size_t>(64 + (i * 131) % 1200));
      net.send(std::move(p));
    }
    sim.run();
    return std::pair{sim.eventsExecuted(), sim.metrics().snapshotJson()};
  };
  const auto first = runOnce(GetParam());
  const auto second = runOnce(GetParam());
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
  // With 5% loss some drops must actually have occurred, so the snapshots
  // being equal is a statement about real stochastic state, not zeros.
  EXPECT_NE(first.second.find("\"net.packet.dropped_loss\":"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SameSeedDeterminism,
                         ::testing::Values(1ull, 42ull, 0xC0FFEEull, 987654321ull));

// --------------------------------------------- kernel heap vs naive oracle --

// The slab-arena 4-ary heap with in-place cancellation must dispatch exactly
// the same events in exactly the same order as the obviously-correct model:
// a flat vector sorted by (time, sequence). Randomized schedule / cancel /
// run interleavings probe every heap path (root, interior, and tail
// removals; sift-up and sift-down repairs; slot recycling).
TEST(KernelHeapProperty, RandomChurnMatchesSortedVectorOracle) {
  struct OracleEvent {
    st::SimTime time;
    std::uint64_t seq;  // schedule order: tiebreak among equal times
    int value;
    st::EventId id;
  };
  for (std::uint64_t seed : {7ull, 1234ull, 0xDECAFull}) {
    st::Simulator sim;
    util::Rng rng(seed);
    std::vector<int> fired;         // what the kernel actually ran
    std::vector<int> oracle_fired;  // what the model says should have run
    std::vector<OracleEvent> pending;
    std::uint64_t next_seq = 0;
    int next_value = 0;

    auto oracleRunUntil = [&](st::SimTime t) {
      std::vector<OracleEvent> due;
      for (const auto& e : pending) {
        if (e.time <= t) due.push_back(e);
      }
      std::sort(due.begin(), due.end(), [](const OracleEvent& a, const OracleEvent& b) {
        return a.time != b.time ? a.time < b.time : a.seq < b.seq;
      });
      for (const auto& e : due) oracle_fired.push_back(e.value);
      std::erase_if(pending, [&](const OracleEvent& e) { return e.time <= t; });
    };

    for (int step = 0; step < 5000; ++step) {
      const std::uint64_t op = rng.below(10);
      if (op < 6) {  // schedule
        const st::SimTime t = sim.now() + static_cast<st::SimTime>(rng.below(1000));
        const int v = next_value++;
        const st::EventId id = sim.scheduleAt(t, [&fired, v] { fired.push_back(v); });
        pending.push_back({t, next_seq++, v, id});
      } else if (op < 9) {  // cancel a random pending event
        if (!pending.empty()) {
          const std::size_t k = rng.below(pending.size());
          sim.cancel(pending[k].id);
          pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(k));
        }
      } else {  // advance time, firing everything due
        const st::SimTime t = sim.now() + static_cast<st::SimTime>(rng.below(500));
        sim.runUntil(t);
        oracleRunUntil(t);
        ASSERT_EQ(fired, oracle_fired) << "diverged at step " << step << " seed " << seed;
        ASSERT_EQ(sim.pendingEventCount(), pending.size());
      }
    }
    sim.run();
    oracleRunUntil(std::numeric_limits<st::SimTime>::max());
    EXPECT_EQ(fired, oracle_fired) << "seed " << seed;
    EXPECT_EQ(sim.pendingEventCount(), 0u);
    // Arena footprint tracks peak concurrency, not total scheduled.
    EXPECT_LE(sim.eventArenaSlots(), 5000u);
  }
}

// ------------------------------------- incremental max-min sharing oracle ---

// The component-scoped incremental recompute must be *exactly* equivalent to
// re-running progressive filling over every active flow (DESIGN.md §8,
// "Incremental sharing"): same completion and abort times to the tick, same
// stall/resume decisions, bitwise-identical sampled rates. Random topologies
// under random churn — starts, completions, degrades (including to zero
// bandwidth), restores, link down/up — with twin simulators, one per mode.
namespace {

struct FlowScenario {
  // Topology.
  int hosts = 0, routers = 0;
  struct L { int a, b; double bw; double lat_s; };
  std::vector<L> links;
  // Timed script.
  struct Ev { double at_s; int kind; int x; double v; };  // kind: 0 start(x=src*1000+dst, v=bits)
                                                          // 1 degrade(x=link, v=mult)
                                                          // 2 restore(x=link)
                                                          // 3 down(x=link)  4 up(x=link)
  std::vector<Ev> script;
};

FlowScenario makeFlowScenario(std::uint64_t seed) {
  util::Rng rng(seed);
  FlowScenario s;
  s.hosts = 2 + static_cast<int>(rng.below(5));    // 2..6 hosts
  s.routers = 1 + static_cast<int>(rng.below(3));  // 1..3 routers
  const int n = s.hosts + s.routers;
  const double bws[] = {10e6, 50e6, 100e6, 622e6};
  // Random spanning tree keeps everything connected; extra links add route
  // diversity (and parallel edges exercise the per-dlink bookkeeping).
  for (int i = 1; i < n; ++i) {
    s.links.push_back({i, static_cast<int>(rng.below(static_cast<std::uint64_t>(i))),
                       bws[rng.below(4)], rng.uniform(0.1e-3, 2e-3)});
  }
  const int extra = static_cast<int>(rng.below(3));
  for (int e = 0; e < extra; ++e) {
    const int a = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
    const int b = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
    if (a == b) continue;
    s.links.push_back({a, b, bws[rng.below(4)], rng.uniform(0.1e-3, 2e-3)});
  }
  const int events = 8 + static_cast<int>(rng.below(12));
  double t = 0;
  for (int e = 0; e < events; ++e) {
    t += rng.uniform(1e-3, 80e-3);
    const auto link = static_cast<int>(rng.below(s.links.size()));
    const int kind = static_cast<int>(rng.below(10));
    if (kind < 5) {  // starts dominate so contention actually builds
      int src = static_cast<int>(rng.below(static_cast<std::uint64_t>(s.hosts)));
      int dst = static_cast<int>(rng.below(static_cast<std::uint64_t>(s.hosts)));
      if (src == dst) dst = (dst + 1) % s.hosts;
      s.script.push_back({t, 0, src * 1000 + dst, rng.uniform(0.2e6, 30e6)});
    } else if (kind < 7) {
      const double mults[] = {0.0, 0.25, 0.5, 2.0};  // zero = stall hazard
      s.script.push_back({t, 1, link, mults[rng.below(4)]});
    } else if (kind == 7) {
      s.script.push_back({t, 2, link, 0});
    } else if (kind == 8) {
      s.script.push_back({t, 3, link, 0});
    } else {
      s.script.push_back({t, 4, link, 0});
    }
  }
  return s;
}

/// Replay the scenario on a fresh simulator; the log captures everything
/// observable — event order, times, reasons, bitwise rate samples.
std::vector<std::string> runFlowScenario(const FlowScenario& s, bool incremental) {
  st::Simulator sim;
  net::Topology topo;
  for (int h = 0; h < s.hosts; ++h) topo.addHost(util::format("h%d", h));
  for (int r = 0; r < s.routers; ++r) topo.addRouter(util::format("r%d", r));
  for (std::size_t i = 0; i < s.links.size(); ++i) {
    const auto& l = s.links[i];
    topo.addLink(util::format("l%zu", i), l.a, l.b, l.bw, st::fromSeconds(l.lat_s));
  }
  net::NetworkOptions opts;
  opts.kind = net::NetModelKind::Flow;
  opts.incremental = incremental;
  net::Network fn(sim, std::move(topo), opts);
  auto& eng = *fn.flows();

  std::vector<std::string> log;
  std::vector<net::FlowId> ids;
  auto fmt = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%a", v);  // hex float: bitwise-faithful
    return std::string(buf);
  };
  int flow_no = 0;
  for (const auto& ev : s.script) {
    sim.scheduleAt(st::fromSeconds(ev.at_s), [&, ev] {
      switch (ev.kind) {
        case 0: {
          const int idx = flow_no++;
          try {
            net::FlowId id = eng.startBits(
                ev.x / 1000, ev.x % 1000, ev.v, 0,
                [&log, idx, &sim] {
                  log.push_back("done " + std::to_string(idx) + " @" + std::to_string(sim.now()));
                },
                [&log, idx, &sim](const std::string& r) {
                  log.push_back("abort " + std::to_string(idx) + " " + r + " @" +
                                std::to_string(sim.now()));
                });
            ids.push_back(id);
          } catch (const ConfigError&) {
            log.push_back("noroute " + std::to_string(idx));
          }
          break;
        }
        case 1: {
          net::LinkParams p = fn.linkParams(ev.x);
          p.bandwidth_bps = s.links[static_cast<std::size_t>(ev.x)].bw * ev.v;
          fn.applyLinkParams(ev.x, p);
          break;
        }
        case 2: {
          net::LinkParams p = fn.linkParams(ev.x);
          p.bandwidth_bps = s.links[static_cast<std::size_t>(ev.x)].bw;
          fn.applyLinkParams(ev.x, p);
          break;
        }
        case 3:
          fn.setLinkUp(ev.x, false);
          break;
        case 4:
          fn.setLinkUp(ev.x, true);
          break;
      }
      // Bitwise rate + stall sample of every flow ever started: catches a
      // wrong intermediate share even when completion times still agree.
      std::string sample = "rates @" + std::to_string(sim.now());
      for (net::FlowId id : ids) {
        sample += ' ';
        sample += fmt(eng.currentRateBps(id));
        if (eng.isStalled(id)) sample += '*';
      }
      log.push_back(sample);
      EXPECT_TRUE(eng.indexConsistent());
    });
  }
  sim.run();
  const auto& m = sim.metrics();
  log.push_back("stats " + std::to_string(m.counterValue("net.flow.started")) + "/" +
                std::to_string(m.counterValue("net.flow.completed")) + "/" +
                std::to_string(m.counterValue("net.flow.aborted")) + "/" +
                std::to_string(m.counterValue("net.flow.stalls")) + "/" +
                std::to_string(m.counterValue("net.flow.share_recomputes")));
  EXPECT_TRUE(eng.indexConsistent());
  // The event queue only runs dry when no drain is pending, so whatever is
  // still active must be parked as stalled (degraded to zero with no later
  // restore in the script) — anything else is a leaked flow.
  int stalled_left = 0;
  std::string leftovers = "leftover";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (!eng.isStalled(ids[i])) continue;
    ++stalled_left;
    leftovers += util::format(" %zu", i);
  }
  EXPECT_EQ(eng.activeFlows(), stalled_left) << "non-stalled flows leaked past drain/abort";
  log.push_back(leftovers);
  return log;
}

}  // namespace

TEST(FlowIncrementalProperty, MatchesFullRecomputeOracleOn100Seeds) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const FlowScenario s = makeFlowScenario(seed * 0x9E3779B97F4A7C15ull + seed);
    const std::vector<std::string> incremental = runFlowScenario(s, true);
    const std::vector<std::string> full = runFlowScenario(s, false);
    ASSERT_EQ(incremental, full) << "seed " << seed;
  }
}

// ------------------------------------ flow sockets vs the reference -----

// ReferencePlatform and MicroGridPlatform under --netmodel=flow share one
// flow-mode Network/FlowEndpointTable wiring; at rate 1 every time conversion
// between them is an identity (x * 1.0, x / 1.0). So on socket-only
// workloads — no compute, which is where the two platforms differ — every
// virtual timestamp must be equal, not merely close. The workloads mix
// random sleeps before connect, payloads on both sides of the 1 MiB
// chunk/window boundary, replies, and closes observed as EOF.
namespace {

struct SocketJob {
  int client = 0, server = 0;
  double sleep_s = 0;
  std::size_t request = 0, reply = 0;
};

std::vector<SocketJob> makeSocketJobs(util::Rng& rng, int hosts) {
  constexpr std::size_t kMiB = 1 << 20;
  const std::size_t sizes[] = {1,        1000,     kMiB - 1,          kMiB,
                               kMiB + 1, 2 * kMiB, 2 * kMiB + 12345, 3 * kMiB + kMiB / 2};
  std::vector<SocketJob> jobs(1 + rng.below(4));
  for (SocketJob& j : jobs) {
    j.client = static_cast<int>(rng.below(static_cast<std::uint64_t>(hosts)));
    j.server = static_cast<int>(rng.below(static_cast<std::uint64_t>(hosts)));
    if (j.server == j.client) j.server = (j.server + 1) % hosts;
    j.sleep_s = rng.below(4) == 0 ? 0.0 : rng.uniform(0.0, 5e-3);
    j.request = sizes[rng.below(std::size(sizes))];
    j.reply = sizes[rng.below(std::size(sizes))];
  }
  return jobs;
}

core::VirtualGridConfig socketGrid(const FlowScenario& s) {
  core::VirtualGridConfig cfg;
  // Hosts first, then routers: the same node ids makeFlowScenario used.
  for (int h = 0; h < s.hosts; ++h) {
    const std::string phys = util::format("p%d", h);
    cfg.addPhysical(phys, 1e9);
    cfg.addHost(util::format("h%d", h), util::format("10.0.0.%d", h + 1), 1e9, 1ll << 30, phys);
  }
  for (int r = 0; r < s.routers; ++r) cfg.addRouter(util::format("r%d", r));
  auto name = [&s](int id) {
    return id < s.hosts ? util::format("h%d", id) : util::format("r%d", id - s.hosts);
  };
  for (std::size_t i = 0; i < s.links.size(); ++i) {
    const auto& l = s.links[i];
    cfg.addLink(util::format("l%zu", i), name(l.a), name(l.b), l.bw, l.lat_s);
  }
  return cfg;
}

/// Run the jobs and return every virtual timestamp a process observed, as
/// hex floats so equality is bitwise.
std::vector<std::string> runSocketJobs(core::Platform& platform,
                                       const std::vector<SocketJob>& jobs) {
  std::vector<std::string> log;
  auto note = [&log](vos::HostContext& ctx, std::size_t i, const char* what) {
    log.push_back(util::format("%zu %s %a", i, what, ctx.wallTime()));
  };
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const SocketJob& j = jobs[i];
    const auto port = static_cast<std::uint16_t>(2000 + i);
    platform.spawnOn(util::format("h%d", j.server), util::format("server%zu", i),
                     [&, i, j, port](vos::HostContext& ctx) {
                       auto listener = ctx.listen(port);
                       auto sock = listener->accept();
                       note(ctx, i, "accepted");
                       std::vector<std::uint8_t> buf(j.request);
                       sock->recvExact(buf.data(), buf.size());
                       note(ctx, i, "request");
                       std::vector<std::uint8_t> reply(j.reply, 7);
                       sock->send(reply.data(), reply.size());
                       note(ctx, i, "replied");
                       std::uint8_t tail = 0;
                       EXPECT_EQ(sock->recv(&tail, 1), 0u);
                       note(ctx, i, "eof");
                       sock->close();
                       listener->close();
                     });
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const SocketJob& j = jobs[i];
    const auto port = static_cast<std::uint16_t>(2000 + i);
    platform.spawnOn(util::format("h%d", j.client), util::format("client%zu", i),
                     [&, i, j, port](vos::HostContext& ctx) {
                       ctx.sleep(j.sleep_s);
                       note(ctx, i, "slept");
                       auto sock = ctx.connect(util::format("h%d", j.server), port);
                       note(ctx, i, "connected");
                       std::vector<std::uint8_t> req(j.request, 3);
                       sock->send(req.data(), req.size());
                       note(ctx, i, "sent");
                       std::vector<std::uint8_t> buf(j.reply);
                       sock->recvExact(buf.data(), buf.size());
                       note(ctx, i, "reply");
                       sock->close();
                       note(ctx, i, "closed");
                     });
  }
  platform.run();
  log.push_back(util::format("end %a", platform.virtualNow()));
  return log;
}

}  // namespace

TEST(PlatformAgreement, FlowSocketsMatchReferenceAtRateOne) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const FlowScenario s = makeFlowScenario(seed * 0xA24BAED4963EE407ull + 3);
    util::Rng rng(seed);
    const std::vector<SocketJob> jobs = makeSocketJobs(rng, s.hosts);

    const core::VirtualGridConfig ref_cfg = socketGrid(s);
    core::ReferencePlatform ref(ref_cfg);
    const std::vector<std::string> on_ref = runSocketJobs(ref, jobs);

    const core::VirtualGridConfig emu_cfg = socketGrid(s);
    core::MicroGridOptions opts;
    opts.netmodel = net::NetModelKind::Flow;
    opts.rate_override = 1.0;
    core::MicroGridPlatform emu(emu_cfg, opts);
    const std::vector<std::string> on_emu = runSocketJobs(emu, jobs);

    // Every process ran to the end: 4 server and 5 client stamps per job.
    ASSERT_EQ(on_ref.size(), jobs.size() * 9 + 1) << "seed " << seed;
    ASSERT_EQ(on_emu, on_ref) << "seed " << seed;
  }
}

// ------------------------------------------------- hybrid model oracles ---

// Hybrid mode decides once per connection which half of the network carries
// it (DESIGN.md §8). At the two ends of its selector range it must be
// indistinguishable from the mode it then reduces to: with an empty
// selector every connection is a flow socket (= flow), and with `host:*`
// every connection is TCP over packets (= packet). Checked bitwise on every
// per-rank virtual timestamp of a seeded vmpi workload — ping-pongs and
// allreduces with seeded sizes — over the random topologies above, and
// exactly on the kernel's event, spawn and wake counts: hybrid runs the same
// listener, the same processes and the same events as its bound.
namespace {

struct MpiWorkload {
  struct PingPong {
    int a = 0, b = 0;
    std::size_t bytes = 0;
  };
  std::vector<PingPong> pingpongs;
  std::vector<std::size_t> allreduce_doubles;  // one allreduce after each ping-pong
};

MpiWorkload makeMpiWorkload(util::Rng& rng, int ranks) {
  const std::size_t sizes[] = {1, 1000, 1460, 65536, 300000};
  const std::size_t doubles[] = {1, 100, 5000};
  MpiWorkload w;
  const int rounds = 1 + static_cast<int>(rng.below(3));
  for (int i = 0; i < rounds; ++i) {
    MpiWorkload::PingPong pp;
    pp.a = static_cast<int>(rng.below(static_cast<std::uint64_t>(ranks)));
    pp.b = static_cast<int>(rng.below(static_cast<std::uint64_t>(ranks)));
    if (pp.b == pp.a) pp.b = (pp.b + 1) % ranks;
    pp.bytes = sizes[rng.below(std::size(sizes))];
    w.pingpongs.push_back(pp);
    w.allreduce_doubles.push_back(doubles[rng.below(std::size(doubles))]);
  }
  return w;
}

struct MpiRun {
  /// Every virtual timestamp each rank observed (hex floats, so equality is
  /// bitwise) plus the final virtual time.
  std::vector<std::string> log;
  /// sim.kernel.events_executed, sim.process.spawned, sim.process.wakes.
  std::vector<std::int64_t> kernel;
};

/// One rank per host.
MpiRun runMpiWorkload(const FlowScenario& s, const MpiWorkload& w, net::NetModelKind kind,
                      std::vector<std::string> detail) {
  const core::VirtualGridConfig cfg = socketGrid(s);
  core::MicroGridOptions opts;
  opts.netmodel = kind;
  opts.netmodel_detail = std::move(detail);
  core::MicroGridPlatform platform(cfg, opts);
  std::vector<std::string> hosts;
  for (int h = 0; h < s.hosts; ++h) hosts.push_back(util::format("h%d", h));
  std::vector<std::vector<std::string>> per_rank(hosts.size());
  for (int r = 0; r < s.hosts; ++r) {
    platform.spawnOn(hosts[static_cast<std::size_t>(r)], util::format("rank%d", r),
                     [&, r](vos::HostContext& ctx) {
                       auto& log = per_rank[static_cast<std::size_t>(r)];
                       auto comm = vmpi::Comm::init(ctx, r, hosts);
                       log.push_back(util::format("init %a", ctx.wallTime()));
                       for (std::size_t i = 0; i < w.pingpongs.size(); ++i) {
                         const auto& pp = w.pingpongs[i];
                         const int tag = static_cast<int>(i);
                         std::vector<std::uint8_t> buf(pp.bytes, 5);
                         if (r == pp.a) {
                           comm->send(pp.b, tag, buf.data(), buf.size());
                           comm->recv(pp.b, tag, buf.data(), buf.size());
                         } else if (r == pp.b) {
                           comm->recv(pp.a, tag, buf.data(), buf.size());
                           comm->send(pp.a, tag, buf.data(), buf.size());
                         }
                         log.push_back(util::format("pingpong%zu %a", i, ctx.wallTime()));
                         std::vector<double> v(w.allreduce_doubles[i], 1.0 + r);
                         comm->allreduce(v.data(), v.size(), vmpi::Op::Sum);
                         log.push_back(util::format("allreduce%zu %a %a", i, ctx.wallTime(),
                                                    v.front()));
                       }
                       comm->finalize();
                       log.push_back(util::format("finalize %a", ctx.wallTime()));
                     });
  }
  platform.run();
  MpiRun out;
  for (int r = 0; r < s.hosts; ++r) {
    for (const std::string& line : per_rank[static_cast<std::size_t>(r)]) {
      out.log.push_back(util::format("rank%d ", r) + line);
    }
  }
  out.log.push_back(util::format("end %a", platform.virtualNow()));
  obs::MetricsRegistry& m = platform.simulator().metrics();
  for (const char* name : {"sim.kernel.events_executed", "sim.process.spawned", "sim.process.wakes"}) {
    out.kernel.push_back(m.counter(name).value());
  }
  return out;
}

/// Over 50 seeded topologies and workloads, hybrid with `detail` must log
/// exactly what the `bound` model logs and run exactly as many kernel
/// events, process spawns and wakes.
void expectHybridEquals(net::NetModelKind bound, const std::vector<std::string>& detail) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const FlowScenario s = makeFlowScenario(seed * 0x9E3779B97F4A7C15ull + 11);
    util::Rng rng(seed);
    const MpiWorkload w = makeMpiWorkload(rng, s.hosts);
    const auto on_bound = runMpiWorkload(s, w, bound, {});
    const auto on_hybrid = runMpiWorkload(s, w, net::NetModelKind::Hybrid, detail);
    // Every rank logged init, two stamps per round and finalize.
    ASSERT_EQ(on_bound.log.size(),
              static_cast<std::size_t>(s.hosts) * (2 * w.pingpongs.size() + 2) + 1)
        << "seed " << seed;
    ASSERT_EQ(on_hybrid.log, on_bound.log) << "seed " << seed;
    ASSERT_EQ(on_hybrid.kernel, on_bound.kernel)
        << "seed " << seed << " (events executed, processes spawned, wakes)";
  }
}

}  // namespace

TEST(HybridOracle, EmptySelectorEqualsFlow) { expectHybridEquals(net::NetModelKind::Flow, {}); }

TEST(HybridOracle, EscalatingEveryHostEqualsPacket) {
  expectHybridEquals(net::NetModelKind::Packet, {"host:*"});
}

// ------------------------------------------ routing contraction oracle ---

// RoutingTable runs Dijkstra over core nodes only and answers single-link
// stubs from their attachment router (DESIGN.md, "Faults and determinism").
// That must be invisible: every next hop, every path and the column count
// equal the full-graph run it replaced, on random topologies that mix stub
// hosts, multi-homed hosts, single-link routers, two-node islands, parallel
// and equal-weight links (ties), degraded and tiny-weight links, and down
// nodes and links — before and after a recompute().
namespace {

/// The full-graph RoutingTable as it was before stub contraction: one
/// Dijkstra over every node per destination column.
class FullGraphRoutes {
 public:
  explicit FullGraphRoutes(const net::Topology& topo)
      : topo_(topo), cols_(static_cast<std::size_t>(topo.nodeCount())) {}

  int columnsBuilt() const { return built_; }

  net::LinkId nextLink(net::NodeId from, net::NodeId dst) {
    if (from == dst) return net::kNoLink;
    return column(dst)[static_cast<std::size_t>(from)];
  }

  std::vector<net::LinkId> path(net::NodeId src, net::NodeId dst) {
    std::vector<net::LinkId> out;
    net::NodeId at = src;
    while (at != dst) {
      const net::LinkId lid = nextLink(at, dst);
      if (lid == net::kNoLink) return {};
      out.push_back(lid);
      at = topo_.peer(lid, at);
      if (out.size() > static_cast<std::size_t>(topo_.nodeCount())) {
        throw UsageError("routing loop detected");
      }
    }
    return out;
  }

 private:
  const std::vector<net::LinkId>& column(net::NodeId dst) {
    std::vector<net::LinkId>& col = cols_[static_cast<std::size_t>(dst)];
    if (!col.empty()) return col;
    const auto n = static_cast<std::size_t>(topo_.nodeCount());
    std::vector<double> dist(n, std::numeric_limits<double>::infinity());
    std::vector<net::LinkId> via(n, net::kNoLink);
    using Item = std::pair<double, net::NodeId>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    dist[static_cast<std::size_t>(dst)] = 0;
    pq.emplace(0.0, dst);
    while (!pq.empty()) {
      auto [d, u] = pq.top();
      pq.pop();
      if (d > dist[static_cast<std::size_t>(u)]) continue;
      if (!topo_.node(u).up && u != dst) continue;
      for (net::LinkId lid : topo_.linksAt(u)) {
        const net::Link& l = topo_.link(lid);
        if (!l.up) continue;
        const net::NodeId v = topo_.peer(lid, u);
        const double w = st::toSeconds(l.latency) + 1500.0 * 8.0 / l.bandwidth_bps;
        const double nd = d + w;
        auto& dv = dist[static_cast<std::size_t>(v)];
        net::LinkId& vv = via[static_cast<std::size_t>(v)];
        if (nd < dv - 1e-15 || (nd <= dv + 1e-15 && vv != net::kNoLink && u < topo_.peer(vv, v))) {
          dv = std::min(dv, nd);
          vv = lid;
          pq.emplace(nd, v);
        }
      }
    }
    via[static_cast<std::size_t>(dst)] = net::kNoLink;
    col = std::move(via);
    ++built_;
    return col;
  }

  const net::Topology& topo_;
  std::vector<std::vector<net::LinkId>> cols_;
  int built_ = 0;
};

int pickBelow(util::Rng& rng, int n) {
  return static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
}

net::Topology makeRoutingTopology(util::Rng& rng) {
  auto pick = [&rng](int n) { return pickBelow(rng, n); };
  enum Role { Router, Stub, MultiHomed, LeafRouter, Island, Loner };
  std::vector<Role> roles;
  auto add = [&roles](Role r, int count) {
    roles.insert(roles.end(), static_cast<std::size_t>(count), r);
  };
  add(Router, 1 + pick(5));
  add(Stub, pick(9));
  add(MultiHomed, pick(3));
  add(LeafRouter, pick(3));
  add(Island, 2 * pick(2));
  add(Loner, pick(2));
  // Shuffle so stubs and routers interleave in node-id order, which the
  // equal-cost tie rule reads.
  for (std::size_t i = roles.size(); i > 1; --i) std::swap(roles[i - 1], roles[rng.below(i)]);

  net::Topology topo;
  std::vector<net::NodeId> routers, hubs, islands;
  std::vector<std::pair<net::NodeId, Role>> pending;
  for (std::size_t i = 0; i < roles.size(); ++i) {
    const std::string name = util::format("n%zu", i);
    const bool router =
        roles[i] == Router || roles[i] == LeafRouter || (roles[i] == Island && pick(2));
    const net::NodeId id = router ? topo.addRouter(name) : topo.addHost(name);
    if (roles[i] == Router) {
      routers.push_back(id);
      hubs.push_back(id);
    } else if (roles[i] == MultiHomed) {
      hubs.push_back(id);
      pending.emplace_back(id, roles[i]);
    } else if (roles[i] == Island) {
      islands.push_back(id);
    } else if (roles[i] != Loner) {
      pending.emplace_back(id, roles[i]);
    }
  }

  int links = 0;
  auto link = [&](net::NodeId a, net::NodeId b) {
    double bw = 0;
    st::SimTime lat = 0;
    const int kind = pick(20);
    if (kind < 14) {  // a few values, so equal-cost ties are common
      const double bws[] = {100e6, 1e9};
      const double lats[] = {0.0, 50e-6, 100e-6};
      bw = bws[pick(2)];
      lat = st::fromSeconds(lats[pick(3)]);
    } else if (kind < 19) {
      bw = rng.uniform(10e6, 1e9);
      lat = st::fromSeconds(rng.uniform(0.0, 200e-6));
    } else {  // tiny weight: 2w < 1e-15, so its endpoints stay core
      bw = 1e20;
    }
    topo.addLink(util::format("l%d", links++), a, b, bw, lat);
  };
  // Router backbone: a random tree plus extra (possibly parallel) links.
  for (std::size_t i = 1; i < routers.size(); ++i) link(routers[i], routers[rng.below(i)]);
  for (int e = pick(3); e > 0; --e) {
    const net::NodeId a = routers[rng.below(routers.size())];
    const net::NodeId b = routers[rng.below(routers.size())];
    if (a != b) link(a, b);
  }
  for (auto [id, role] : pending) {
    if (role == MultiHomed) {  // two uplinks, sometimes to the same router
      link(id, routers[rng.below(routers.size())]);
      link(id, routers[rng.below(routers.size())]);
    } else {
      // Stubs and leaf routers hang off a router or a multi-homed host.
      net::NodeId hub = id;
      while (hub == id) hub = hubs[rng.below(hubs.size())];
      link(id, hub);
    }
  }
  for (std::size_t i = 0; i + 1 < islands.size(); i += 2) link(islands[i], islands[i + 1]);

  for (net::NodeId v = 0; v < topo.nodeCount(); ++v) {
    if (pick(7) == 0) topo.mutableNode(v).up = false;
  }
  for (net::LinkId l = 0; l < topo.linkCount(); ++l) {
    if (pick(7) == 0) topo.mutableLink(l).up = false;
    if (pick(25) == 0) topo.mutableLink(l).bandwidth_bps = 0;  // degraded: infinite weight
  }
  return topo;
}

/// Queries every ordered pair in a random order against a fresh oracle.
void expectOracleRoutes(const net::Topology& topo, const net::RoutingTable& rt, util::Rng& rng,
                        const std::string& where) {
  FullGraphRoutes oracle(topo);
  const int n = topo.nodeCount();
  std::vector<std::pair<net::NodeId, net::NodeId>> pairs;
  for (net::NodeId a = 0; a < n; ++a) {
    for (net::NodeId b = 0; b < n; ++b) pairs.emplace_back(a, b);
  }
  for (std::size_t i = pairs.size(); i > 1; --i) std::swap(pairs[i - 1], pairs[rng.below(i)]);
  auto route = [](auto& table, net::NodeId a, net::NodeId b) {
    try {
      return table.path(a, b);
    } catch (const UsageError&) {
      return std::vector<net::LinkId>{-2};  // routing loop
    }
  };
  for (auto [a, b] : pairs) {
    const std::string at = where + " from " + std::to_string(a) + " to " + std::to_string(b);
    ASSERT_EQ(rt.nextLink(a, b), oracle.nextLink(a, b)) << at;
    ASSERT_EQ(rt.columnsBuilt(), oracle.columnsBuilt()) << at;
    ASSERT_EQ(route(rt, a, b), route(oracle, a, b)) << at;
  }
}

}  // namespace

TEST(RoutingContraction, MatchesFullDijkstraOracle) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    util::Rng rng(seed * 0xD1B54A32D192ED03ull + 7);
    net::Topology topo = makeRoutingTopology(rng);
    net::RoutingTable rt(topo);
    const std::string where = "seed " + std::to_string(seed);
    expectOracleRoutes(topo, rt, rng, where);
    if (HasFatalFailure()) return;
    // Flip a few nodes and links (restoring degraded bandwidth on some) and
    // recompute.
    for (int k = 0; k < 3; ++k) {
      net::Node& v = topo.mutableNode(pickBelow(rng, topo.nodeCount()));
      v.up = !v.up;
      if (topo.linkCount() == 0) continue;
      net::Link& l = topo.mutableLink(pickBelow(rng, topo.linkCount()));
      l.up = !l.up;
      if (l.bandwidth_bps == 0) l.bandwidth_bps = 100e6;
    }
    rt.recompute(topo);
    expectOracleRoutes(topo, rt, rng, where + " after recompute");
    if (HasFatalFailure()) return;
  }
}
