// Tests for the network substrate: topology/routing, the packet-level
// simulator, the TCP transport, and the flow-level reference model.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>

#include "net/network.h"
#include "net/tcp.h"
#include "net/topology.h"
#include "sim/condition.h"
#include "sim/simulator.h"
#include "tcp_backlog.h"
#include "util/config.h"

using namespace mg::net;
using mg::sim::SimTime;
using mg::sim::Simulator;
namespace st = mg::sim;

// ---------------------------------------------------------------- fixture --

namespace {

/// Two hosts joined by one 100 Mbps / 0.1 ms Ethernet-like link.
struct TwoHostNet {
  Simulator sim;
  NodeId a, b;
  std::unique_ptr<Network> net;
  std::unique_ptr<TcpStack> stack_a, stack_b;

  explicit TwoHostNet(double bw = 100e6, SimTime lat = st::fromSeconds(0.1e-3),
                      double loss = 0.0, NetworkOptions opts = {}) {
    Topology topo;
    a = topo.addHost("a");
    b = topo.addHost("b");
    topo.addLink("l", a, b, bw, lat, 256 * 1024, loss);
    net = std::make_unique<Network>(sim, std::move(topo), opts);
    stack_a = std::make_unique<TcpStack>(*net, a);
    stack_b = std::make_unique<TcpStack>(*net, b);
  }
};

/// Options for a network built in flow mode (every connection a fluid flow).
NetworkOptions flowMode() {
  NetworkOptions opts;
  opts.kind = NetModelKind::Flow;
  return opts;
}

/// Blocking transfer of `bytes` payload from src to dst on a flow-mode
/// network (process context). Returns the network-time duration the
/// transfer took (unscaled). Throws ConfigError if the nodes are not
/// connected and mg::Error if a fault aborts the flow mid-transfer.
SimTime transfer(Network& net, NodeId src, NodeId dst, std::int64_t bytes) {
  Simulator& sim = net.simulator();
  const SimTime begin = sim.now();
  st::Condition done(sim);
  bool finished = false;
  std::string abort_why;
  net.flows()->start(
      src, dst, bytes,
      [&] {
        finished = true;
        done.notifyAll();
      },
      [&](const std::string& why) {
        abort_why = why;
        finished = true;
        done.notifyAll();
      });
  while (!finished) done.wait();
  if (!abort_why.empty()) throw mg::Error("flow aborted: " + abort_why);
  const double inv = 1.0 / net.timeScale();
  return static_cast<SimTime>(std::llround(static_cast<double>(sim.now() - begin) * inv));
}

std::vector<std::uint8_t> patternBytes(size_t n, std::uint8_t salt = 0) {
  std::vector<std::uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>((i * 131 + salt) & 0xff);
  return v;
}

}  // namespace

// --------------------------------------------------------------- topology --

TEST(Topology, AddAndFind) {
  Topology t;
  NodeId h = t.addHost("h0");
  NodeId r = t.addRouter("r0");
  LinkId l = t.addLink("l0", h, r, 100e6, 1000);
  EXPECT_EQ(t.nodeCount(), 2);
  EXPECT_EQ(t.linkCount(), 1);
  EXPECT_EQ(t.findNode("h0"), h);
  EXPECT_EQ(t.findNode("nope"), kNoNode);
  EXPECT_EQ(t.findLink("l0"), l);
  EXPECT_EQ(t.node(r).kind, NodeKind::Router);
  EXPECT_EQ(t.peer(l, h), r);
  EXPECT_EQ(t.peer(l, r), h);
}

TEST(Topology, RejectsBadInput) {
  Topology t;
  NodeId h = t.addHost("h");
  EXPECT_THROW(t.addHost("h"), mg::ConfigError);
  EXPECT_THROW(t.addLink("l", h, h, 100e6, 0), mg::ConfigError);
  EXPECT_THROW(t.addLink("l", h, 99, 100e6, 0), mg::ConfigError);
  NodeId g = t.addHost("g");
  EXPECT_THROW(t.addLink("l", h, g, 0, 0), mg::ConfigError);
  EXPECT_THROW(t.addLink("l", h, g, 100e6, -1), mg::ConfigError);
  EXPECT_THROW(t.addLink("l", h, g, 100e6, 0, 1024, 1.5), mg::ConfigError);
}

TEST(Topology, NameIndexRules) {
  Topology t;
  const NodeId a = t.addHost("a");
  const NodeId r = t.addRouter("r");
  EXPECT_THROW(t.addRouter("a"), mg::ConfigError);  // node names are unique across kinds
  EXPECT_THROW(t.addHost("r"), mg::ConfigError);
  EXPECT_EQ(t.nodeCount(), 2);  // a rejected name adds nothing
  EXPECT_EQ(t.findNode("b"), kNoNode);
  const LinkId first = t.addLink("dup", a, r, 100e6, 0);
  const LinkId second = t.addLink("dup", r, a, 10e6, 0);  // links may share a name
  EXPECT_NE(first, second);
  EXPECT_EQ(t.findLink("dup"), first);
  EXPECT_EQ(t.findLink("none"), kNoLink);
}

TEST(Topology, FromConfig) {
  auto cfg = mg::util::Config::parse(R"(
[node h0]
[node h1]
[node r0]
kind = router
[link l0]
a = h0
b = r0
bandwidth = 100Mbps
latency = 0.1ms
[link l1]
a = r0
b = h1
bandwidth = 622Mbps
latency = 2ms
queue = 512KB
loss = 0.01
)");
  Topology t = Topology::fromConfig(cfg);
  EXPECT_EQ(t.nodeCount(), 3);
  EXPECT_EQ(t.linkCount(), 2);
  EXPECT_EQ(t.node(t.findNode("r0")).kind, NodeKind::Router);
  const Link& l1 = t.link(t.findLink("l1"));
  EXPECT_DOUBLE_EQ(l1.bandwidth_bps, 622e6);
  EXPECT_EQ(l1.latency, st::fromSeconds(2e-3));
  EXPECT_EQ(l1.queue_bytes, 512 * 1024);
  EXPECT_DOUBLE_EQ(l1.loss_rate, 0.01);
}

TEST(Topology, FromConfigUnknownNodeThrows) {
  auto cfg = mg::util::Config::parse("[link l]\na = x\nb = y\nbandwidth = 1Mbps\nlatency = 1ms\n");
  EXPECT_THROW(Topology::fromConfig(cfg), mg::ConfigError);
}

// ---------------------------------------------------------------- routing --

TEST(Routing, LineTopologyPath) {
  Topology t;
  NodeId n0 = t.addHost("n0");
  NodeId r = t.addRouter("r");
  NodeId n1 = t.addHost("n1");
  LinkId l0 = t.addLink("l0", n0, r, 100e6, 1000);
  LinkId l1 = t.addLink("l1", r, n1, 100e6, 1000);
  RoutingTable rt(t);
  EXPECT_EQ(rt.path(n0, n1), (std::vector<LinkId>{l0, l1}));
  EXPECT_EQ(rt.path(n1, n0), (std::vector<LinkId>{l1, l0}));
  EXPECT_EQ(rt.nextLink(n0, n1), l0);
  EXPECT_TRUE(rt.path(n0, n0).empty());
}

TEST(Routing, PrefersLowerLatencyPath) {
  Topology t;
  NodeId s = t.addHost("s");
  NodeId d = t.addHost("d");
  NodeId r1 = t.addRouter("r1");
  NodeId r2 = t.addRouter("r2");
  // Slow path s-r1-d (10ms links), fast path s-r2-d (1ms links).
  t.addLink("s1", s, r1, 100e6, st::fromSeconds(10e-3));
  t.addLink("d1", r1, d, 100e6, st::fromSeconds(10e-3));
  LinkId f1 = t.addLink("s2", s, r2, 100e6, st::fromSeconds(1e-3));
  LinkId f2 = t.addLink("d2", r2, d, 100e6, st::fromSeconds(1e-3));
  RoutingTable rt(t);
  EXPECT_EQ(rt.path(s, d), (std::vector<LinkId>{f1, f2}));
  EXPECT_EQ(rt.pathLatency(t, s, d), st::fromSeconds(2e-3));
}

TEST(Routing, BottleneckBandwidth) {
  Topology t;
  NodeId a = t.addHost("a");
  NodeId r = t.addRouter("r");
  NodeId b = t.addHost("b");
  t.addLink("fast", a, r, 622e6, 1000);
  t.addLink("slow", r, b, 10e6, 1000);
  RoutingTable rt(t);
  EXPECT_DOUBLE_EQ(rt.bottleneckBandwidth(t, a, b), 10e6);
}

TEST(Routing, UnreachableNodes) {
  Topology t;
  NodeId a = t.addHost("a");
  NodeId b = t.addHost("b");  // no link
  RoutingTable rt(t);
  EXPECT_EQ(rt.nextLink(a, b), kNoLink);
  EXPECT_TRUE(rt.path(a, b).empty());
  EXPECT_EQ(rt.pathLatency(t, a, b), -1);
  EXPECT_DOUBLE_EQ(rt.bottleneckBandwidth(t, a, b), 0.0);
}

TEST(Routing, RecomputeAfterLinkDown) {
  Topology t;
  NodeId a = t.addHost("a");
  NodeId b = t.addHost("b");
  NodeId r = t.addRouter("r");
  LinkId direct = t.addLink("direct", a, b, 100e6, st::fromSeconds(1e-3));
  LinkId via1 = t.addLink("via1", a, r, 100e6, st::fromSeconds(5e-3));
  LinkId via2 = t.addLink("via2", r, b, 100e6, st::fromSeconds(5e-3));
  RoutingTable rt(t);
  EXPECT_EQ(rt.path(a, b), (std::vector<LinkId>{direct}));
  t.mutableLink(direct).up = false;
  rt.recompute(t);
  EXPECT_EQ(rt.path(a, b), (std::vector<LinkId>{via1, via2}));
}

// Single-link hosts are routed from their attachment router (stub
// contraction); the down-node rules must read exactly as on the full graph.
namespace {

/// Routers r0 - r1, stub hosts h0 and h1 under r0, stub host h2 under r1.
struct StubNet {
  Topology t;
  NodeId r0, r1, h0, h1, h2;
  LinkId trunk, e0, e1, e2;
  StubNet() {
    r0 = t.addRouter("r0");
    r1 = t.addRouter("r1");
    h0 = t.addHost("h0");
    h1 = t.addHost("h1");
    h2 = t.addHost("h2");
    trunk = t.addLink("trunk", r0, r1, 1e9, st::fromSeconds(1e-3));
    e0 = t.addLink("e0", h0, r0, 100e6, st::fromSeconds(50e-6));
    e1 = t.addLink("e1", h1, r0, 100e6, st::fromSeconds(50e-6));
    e2 = t.addLink("e2", h2, r1, 100e6, st::fromSeconds(50e-6));
  }
};

}  // namespace

TEST(Routing, DownStubDestinationIsStillReachable) {
  StubNet n;
  n.t.mutableNode(n.h2).up = false;
  RoutingTable rt(n.t);
  EXPECT_EQ(rt.path(n.h0, n.h2), (std::vector<LinkId>{n.e0, n.trunk, n.e2}));
  EXPECT_EQ(rt.path(n.r0, n.h2), (std::vector<LinkId>{n.trunk, n.e2}));
}

TEST(Routing, DownStubSourceKeepsItsUplinkOut) {
  StubNet n;
  n.t.mutableNode(n.h0).up = false;
  RoutingTable rt(n.t);
  // Its dying-gasp packets can still leave...
  EXPECT_EQ(rt.nextLink(n.h0, n.h2), n.e0);
  EXPECT_EQ(rt.path(n.h0, n.h1), (std::vector<LinkId>{n.e0, n.e1}));
  // ...and, as a destination, it is still reachable.
  EXPECT_EQ(rt.path(n.h2, n.h0), (std::vector<LinkId>{n.e2, n.trunk, n.e0}));
}

TEST(Routing, DownAttachmentRouterCutsOffItsStubs) {
  StubNet n;
  n.t.mutableNode(n.r0).up = false;
  RoutingTable rt(n.t);
  EXPECT_TRUE(rt.path(n.h2, n.h0).empty());
  EXPECT_TRUE(rt.path(n.h0, n.h2).empty());
  EXPECT_TRUE(rt.path(n.h0, n.h1).empty());
  EXPECT_TRUE(rt.path(n.h1, n.h0).empty());
  EXPECT_EQ(rt.nextLink(n.h0, n.h2), kNoLink);
  // The router itself is a reachable destination, and keeps a first hop out.
  EXPECT_EQ(rt.path(n.h0, n.r0), (std::vector<LinkId>{n.e0}));
  EXPECT_EQ(rt.path(n.h2, n.r0), (std::vector<LinkId>{n.e2, n.trunk}));
  EXPECT_EQ(rt.nextLink(n.r0, n.h2), n.trunk);
}

TEST(Routing, DownUplinkIsolatesItsStub) {
  StubNet n;
  n.t.mutableLink(n.e0).up = false;
  RoutingTable rt(n.t);
  EXPECT_EQ(rt.nextLink(n.h0, n.r0), kNoLink);
  EXPECT_EQ(rt.nextLink(n.r0, n.h0), kNoLink);
  EXPECT_TRUE(rt.path(n.h0, n.h2).empty());
  EXPECT_TRUE(rt.path(n.h2, n.h0).empty());
  EXPECT_TRUE(rt.path(n.h1, n.h0).empty());
  // The other stub under the same router is untouched.
  EXPECT_EQ(rt.path(n.h1, n.h2), (std::vector<LinkId>{n.e1, n.trunk, n.e2}));
}

TEST(Routing, RecomputeAfterRestoreGivesBackTheOriginalRoutes) {
  StubNet n;
  RoutingTable rt(n.t);
  auto allPaths = [&] {
    std::vector<std::vector<LinkId>> out;
    for (NodeId a = 0; a < n.t.nodeCount(); ++a) {
      for (NodeId b = 0; b < n.t.nodeCount(); ++b) out.push_back(rt.path(a, b));
    }
    return out;
  };
  const auto before = allPaths();
  n.t.mutableLink(n.e0).up = false;
  n.t.mutableNode(n.r1).up = false;
  rt.recompute(n.t);
  EXPECT_NE(allPaths(), before);
  n.t.mutableLink(n.e0).up = true;
  n.t.mutableNode(n.r1).up = true;
  rt.recompute(n.t);
  EXPECT_EQ(allPaths(), before);
}

// ---------------------------------------------------------- packet network --

TEST(PacketNetwork, DeliversWithExpectedTiming) {
  Simulator sim;
  Topology topo;
  NodeId a = topo.addHost("a");
  NodeId b = topo.addHost("b");
  topo.addLink("l", a, b, 100e6, st::fromSeconds(0.1e-3));
  NetworkOptions opts;
  Network net(sim, std::move(topo), opts);
  SimTime delivered_at = -1;
  net.attachHost(b, [&](Packet&&) { delivered_at = sim.now(); });

  Packet p;
  p.src = a;
  p.dst = b;
  p.payload = patternBytes(1000);
  const SimTime tx = st::fromSeconds(p.wireBytes() * 8.0 / 100e6);
  sim.spawn("send", [&] { net.send(std::move(p)); });
  sim.run();
  const SimTime expected = kHostStackDelay + tx + st::fromSeconds(0.1e-3) + kHostStackDelay;
  EXPECT_NEAR(static_cast<double>(delivered_at), static_cast<double>(expected), 1000.0);
  EXPECT_EQ(sim.metrics().counterValue("net.packet.delivered"), 1);
  EXPECT_EQ(sim.metrics().counterValue("net.packet.bytes_delivered"), 1000);
}

TEST(PacketNetwork, MultiHopForwardsThroughRouter) {
  Simulator sim;
  Topology topo;
  NodeId a = topo.addHost("a");
  NodeId r = topo.addRouter("r");
  NodeId b = topo.addHost("b");
  topo.addLink("l0", a, r, 100e6, st::fromSeconds(1e-3));
  topo.addLink("l1", r, b, 100e6, st::fromSeconds(1e-3));
  Network net(sim, std::move(topo), {});
  bool delivered = false;
  net.attachHost(b, [&](Packet&&) { delivered = true; });
  Packet p;
  p.src = a;
  p.dst = b;
  p.payload = patternBytes(100);
  net.send(std::move(p));
  sim.run();
  EXPECT_TRUE(delivered);
  // Router latency: > 2ms total propagation.
  EXPECT_GT(sim.now(), st::fromSeconds(2e-3));
}

TEST(PacketNetwork, QueueOverflowDrops) {
  Simulator sim;
  Topology topo;
  NodeId a = topo.addHost("a");
  NodeId b = topo.addHost("b");
  // Tiny queue: 3 KB holds just two 1500 B packets.
  topo.addLink("l", a, b, 1e6, st::fromSeconds(1e-3), 3000);
  Network net(sim, std::move(topo), {});
  int delivered = 0;
  net.attachHost(b, [&](Packet&&) { ++delivered; });
  for (int i = 0; i < 10; ++i) {
    Packet p;
    p.src = a;
    p.dst = b;
    p.payload = patternBytes(1400);
    net.send(std::move(p));
  }
  sim.run();
  EXPECT_GT(sim.metrics().counterValue("net.packet.dropped_queue"), 0);
  EXPECT_EQ(delivered + sim.metrics().counterValue("net.packet.dropped_queue"), 10);
}

TEST(PacketNetwork, RandomLossIsDeterministicPerSeed) {
  auto countDelivered = [](std::uint64_t seed) {
    Simulator sim;
    Topology topo;
    NodeId a = topo.addHost("a");
    NodeId b = topo.addHost("b");
    topo.addLink("l", a, b, 100e6, 1000, 256 * 1024, 0.3);
    NetworkOptions opts;
    opts.seed = seed;
    Network net(sim, std::move(topo), opts);
    int delivered = 0;
    net.attachHost(b, [&](Packet&&) { ++delivered; });
    for (int i = 0; i < 200; ++i) {
      Packet p;
      p.src = a;
      p.dst = b;
      p.payload = patternBytes(100);
      net.send(std::move(p));
    }
    sim.run();
    return delivered;
  };
  int d1 = countDelivered(1);
  EXPECT_EQ(d1, countDelivered(1));
  EXPECT_GT(d1, 100);  // ~140 expected
  EXPECT_LT(d1, 180);
}

TEST(PacketNetwork, LinkDownDropsAndUnreachable) {
  Simulator sim;
  Topology topo;
  NodeId a = topo.addHost("a");
  NodeId b = topo.addHost("b");
  LinkId l = topo.addLink("l", a, b, 100e6, 1000);
  Network net(sim, std::move(topo), {});
  int delivered = 0;
  net.attachHost(b, [&](Packet&&) { ++delivered; });
  net.setLinkUp(l, false);
  Packet p;
  p.src = a;
  p.dst = b;
  p.payload = patternBytes(10);
  net.send(std::move(p));
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(sim.metrics().counterValue("net.packet.dropped_down"), 1);
}

TEST(PacketNetwork, StatsBreakOutDropCausesAndRouteRecomputes) {
  Simulator sim;
  Topology topo;
  NodeId a = topo.addHost("a");
  NodeId b = topo.addHost("b");
  // 1 kb/s: a small packet spends ~0.4 s on the wire, leaving a wide window
  // to yank the link or the node mid-flight.
  LinkId l = topo.addLink("l", a, b, 1000.0, 1000);
  Network net(sim, std::move(topo), {});
  net.attachHost(b, [](Packet&&) {});
  // Only topology *changes* recompute routes; construction is not counted.
  EXPECT_EQ(sim.metrics().counterValue("net.route.recomputes"), 0);

  auto sendOne = [&] {
    Packet p;
    p.src = a;
    p.dst = b;
    p.payload = patternBytes(10);
    net.send(std::move(p));
  };

  // The link dies while the packet is on the wire: dropped at transmit
  // completion, attributed to link_down.
  sendOne();
  sim.scheduleAt(st::fromSeconds(0.05), [&] { net.setLinkUp(l, false); });  // recompute #1
  sim.run();
  EXPECT_EQ(sim.metrics().counterValue("net.packet.drop_link_down"), 1);
  EXPECT_EQ(sim.metrics().counterValue("net.packet.drop_node_down"), 0);

  // The destination crashes while the packet is mid-flight: it crosses the
  // (healthy) wire and is blackholed at delivery, attributed to node_down.
  net.setLinkUp(l, true);  // recompute #2
  sendOne();
  sim.scheduleAt(sim.now() + st::fromSeconds(0.05), [&] { net.setNodeUp(b, false); });  // recompute #3
  sim.run();
  EXPECT_EQ(sim.metrics().counterValue("net.packet.drop_link_down"), 1);
  EXPECT_EQ(sim.metrics().counterValue("net.packet.drop_node_down"), 1);
  EXPECT_EQ(sim.metrics().counterValue("net.route.recomputes"), 3);
  // The cause-specific counters partition the aggregate down-drop count.
  EXPECT_EQ(sim.metrics().counterValue("net.packet.dropped_down"), 2);
}

TEST(PacketNetwork, TimeScaleStretchesKernelTime) {
  auto endTime = [](double scale) {
    Simulator sim;
    Topology topo;
    NodeId a = topo.addHost("a");
    NodeId b = topo.addHost("b");
    topo.addLink("l", a, b, 100e6, st::fromSeconds(1e-3));
    NetworkOptions opts;
    opts.time_scale = scale;
    Network net(sim, std::move(topo), opts);
    net.attachHost(b, [](Packet&&) {});
    Packet p;
    p.src = a;
    p.dst = b;
    p.payload = patternBytes(100);
    net.send(std::move(p));
    return sim.run();
  };
  const double t1 = static_cast<double>(endTime(1.0));
  const double t4 = static_cast<double>(endTime(4.0));
  EXPECT_NEAR(t4 / t1, 4.0, 0.01);
}

// --------------------------------------------------------------------- tcp --

TEST(Tcp, ConnectAcceptEcho) {
  TwoHostNet f;
  std::string got;
  f.sim.spawn("server", [&] {
    auto listener = mgtest::listenOn(*f.stack_b, 80);
    auto conn = listener->accept();
    char buf[64];
    size_t n = conn->recv(buf, sizeof buf);
    conn->send(buf, n);  // echo
    conn->close();
  });
  f.sim.spawn("client", [&] {
    auto conn = f.stack_a->connect(f.b, 80);
    const char msg[] = "hello grid";
    conn->send(msg, sizeof msg - 1);
    char buf[64];
    conn->recvExact(buf, sizeof msg - 1);
    got.assign(buf, sizeof msg - 1);
    conn->close();
  });
  f.sim.run();
  EXPECT_EQ(got, "hello grid");
}

TEST(Tcp, LargeTransferIntegrity) {
  TwoHostNet f;
  const size_t kSize = 1 << 20;
  auto data = patternBytes(kSize, 7);
  std::vector<std::uint8_t> received;
  f.sim.spawn("server", [&] {
    auto listener = mgtest::listenOn(*f.stack_b, 80);
    auto conn = listener->accept();
    received.resize(kSize);
    conn->recvExact(received.data(), kSize);
  });
  f.sim.spawn("client", [&] {
    auto conn = f.stack_a->connect(f.b, 80);
    conn->send(data.data(), data.size());
    conn->close();
  });
  f.sim.run();
  EXPECT_EQ(received, data);
}

TEST(Tcp, ThroughputApproachesLinkEfficiency) {
  TwoHostNet f;  // 100 Mbps
  const size_t kSize = 4 << 20;
  SimTime start = 0, end = 0;
  f.sim.spawn("server", [&] {
    auto listener = mgtest::listenOn(*f.stack_b, 80);
    auto conn = listener->accept();
    std::vector<std::uint8_t> sink(kSize);
    start = f.sim.now();
    conn->recvExact(sink.data(), kSize);
    end = f.sim.now();
  });
  f.sim.spawn("client", [&] {
    auto conn = f.stack_a->connect(f.b, 80);
    auto data = patternBytes(1 << 16);
    for (size_t sent = 0; sent < kSize; sent += data.size()) conn->send(data.data(), data.size());
    conn->close();
  });
  f.sim.run();
  const double seconds = st::toSeconds(end - start);
  const double mbps = kSize * 8.0 / seconds / 1e6;
  // Ethernet+IP+TCP efficiency bound is ~94.9 Mbps of payload on 100 Mbps.
  EXPECT_GT(mbps, 88.0);
  EXPECT_LT(mbps, 95.0);
}

TEST(Tcp, SurvivesRandomLoss) {
  TwoHostNet f(100e6, st::fromSeconds(0.5e-3), /*loss=*/0.02);
  const size_t kSize = 256 * 1024;
  auto data = patternBytes(kSize, 3);
  std::vector<std::uint8_t> received;
  std::shared_ptr<TcpConnection> client_conn;
  f.sim.spawn("server", [&] {
    auto listener = mgtest::listenOn(*f.stack_b, 80);
    auto conn = listener->accept();
    received.resize(kSize);
    conn->recvExact(received.data(), kSize);
  });
  f.sim.spawn("client", [&] {
    client_conn = f.stack_a->connect(f.b, 80);
    client_conn->send(data.data(), data.size());
    client_conn->close();
  });
  f.sim.run();
  EXPECT_EQ(received, data);
  // Read after run(): send() returns when bytes are buffered, so the
  // retransmissions happen after the app-level calls complete.
  ASSERT_NE(client_conn, nullptr);
  EXPECT_GT(client_conn->retransmits(), 0);
}

TEST(Tcp, ConnectionRefusedWhenNoListener) {
  TwoHostNet f;
  bool refused = false;
  f.sim.spawn("client", [&] {
    try {
      f.stack_a->connect(f.b, 9999);
    } catch (const ConnectionRefused&) {
      refused = true;
    }
  });
  f.sim.run();
  EXPECT_TRUE(refused);
}

TEST(Tcp, EofAfterPeerClose) {
  TwoHostNet f;
  size_t eof_result = 99;
  f.sim.spawn("server", [&] {
    auto listener = mgtest::listenOn(*f.stack_b, 80);
    auto conn = listener->accept();
    const char msg[] = "bye";
    conn->send(msg, 3);
    conn->close();
  });
  f.sim.spawn("client", [&] {
    auto conn = f.stack_a->connect(f.b, 80);
    char buf[16];
    conn->recvExact(buf, 3);
    eof_result = conn->recv(buf, sizeof buf);
  });
  f.sim.run();
  EXPECT_EQ(eof_result, 0u);
}

TEST(Tcp, RecvExactThrowsOnEarlyClose) {
  TwoHostNet f;
  bool threw = false;
  f.sim.spawn("server", [&] {
    auto listener = mgtest::listenOn(*f.stack_b, 80);
    auto conn = listener->accept();
    const char msg[] = "xx";
    conn->send(msg, 2);
    conn->close();
  });
  f.sim.spawn("client", [&] {
    auto conn = f.stack_a->connect(f.b, 80);
    char buf[10];
    try {
      conn->recvExact(buf, 10);
    } catch (const ConnectionReset&) {
      threw = true;
    }
  });
  f.sim.run();
  EXPECT_TRUE(threw);
}

TEST(Tcp, FlowControlWithSlowReader) {
  TwoHostNet f;
  const size_t kSize = 3 << 20;  // 3 MB > 1 MB recv buffer
  size_t total = 0;
  f.sim.spawn("server", [&] {
    auto listener = mgtest::listenOn(*f.stack_b, 80);
    auto conn = listener->accept();
    std::vector<std::uint8_t> buf(64 * 1024);
    for (;;) {
      f.sim.delay(20 * st::kMillisecond);  // slow consumer
      size_t n = conn->recv(buf.data(), buf.size());
      if (n == 0) break;
      total += n;
    }
  });
  f.sim.spawn("client", [&] {
    auto conn = f.stack_a->connect(f.b, 80);
    auto data = patternBytes(1 << 16);
    for (size_t sent = 0; sent < kSize; sent += data.size()) conn->send(data.data(), data.size());
    conn->close();
  });
  f.sim.run();
  EXPECT_EQ(total, kSize);
}

TEST(Tcp, BidirectionalSimultaneousTransfer) {
  TwoHostNet f;
  const size_t kSize = 200 * 1024;
  std::vector<std::uint8_t> got_a, got_b;
  f.sim.spawn("server", [&] {
    auto listener = mgtest::listenOn(*f.stack_b, 80);
    auto conn = listener->accept();
    auto out = patternBytes(kSize, 1);
    got_b.resize(kSize);
    f.sim.spawn("server-writer", [conn, out, &f] {
      auto copy = out;
      conn->send(copy.data(), copy.size());
      (void)f;
    });
    conn->recvExact(got_b.data(), kSize);
  });
  f.sim.spawn("client", [&] {
    auto conn = f.stack_a->connect(f.b, 80);
    auto out = patternBytes(kSize, 2);
    f.sim.spawn("client-writer", [conn, out] {
      auto copy = out;
      conn->send(copy.data(), copy.size());
    });
    got_a.resize(kSize);
    conn->recvExact(got_a.data(), kSize);
  });
  f.sim.run();
  EXPECT_EQ(got_a, patternBytes(kSize, 1));
  EXPECT_EQ(got_b, patternBytes(kSize, 2));
}

TEST(Tcp, MultipleConnectionsShareLink) {
  TwoHostNet f;
  const size_t kSize = 512 * 1024;
  int done = 0;
  f.sim.spawn("server", [&] {
    auto listener = mgtest::listenOn(*f.stack_b, 80);
    for (int i = 0; i < 3; ++i) {
      auto conn = listener->accept();
      f.sim.spawn("handler" + std::to_string(i), [conn, &done] {
        std::vector<std::uint8_t> sink(kSize);
        conn->recvExact(sink.data(), kSize);
        ++done;
      });
    }
  });
  for (int c = 0; c < 3; ++c) {
    f.sim.spawn("client" + std::to_string(c), [&, c] {
      f.sim.delay(c * st::kMillisecond);
      auto conn = f.stack_a->connect(f.b, 80);
      auto data = patternBytes(kSize, static_cast<std::uint8_t>(c));
      conn->send(data.data(), data.size());
      conn->close();
    });
  }
  f.sim.run();
  EXPECT_EQ(done, 3);
}

TEST(Tcp, SendAfterCloseThrows) {
  TwoHostNet f;
  bool threw = false;
  f.sim.spawn("server", [&] {
    auto listener = mgtest::listenOn(*f.stack_b, 80);
    auto conn = listener->accept();
    char c;
    conn->recv(&c, 1);
  });
  f.sim.spawn("client", [&] {
    auto conn = f.stack_a->connect(f.b, 80);
    conn->send("x", 1);
    conn->close();
    conn->close();  // idempotent
    try {
      conn->send("y", 1);
    } catch (const mg::UsageError&) {
      threw = true;
    }
  });
  f.sim.run();
  EXPECT_TRUE(threw);
}

TEST(Tcp, AcceptForTimesOut) {
  TwoHostNet f;
  bool timed_out = false;
  f.sim.spawn("server", [&] {
    auto listener = mgtest::listenOn(*f.stack_b, 80);
    auto conn = listener->acceptFor(50 * st::kMillisecond);
    timed_out = (conn == nullptr);
  });
  f.sim.run();
  EXPECT_TRUE(timed_out);
}

TEST(Tcp, ListenTwiceOnSamePortThrows) {
  TwoHostNet f;
  f.sim.spawn("p", [&] {
    auto l1 = mgtest::listenOn(*f.stack_a, 80);
    EXPECT_THROW(mgtest::listenOn(*f.stack_a, 80), mg::UsageError);
    l1->close();
    auto l2 = mgtest::listenOn(*f.stack_a, 80);  // reusable after close
    l2->close();
  });
  f.sim.run();
}

TEST(Tcp, SmallMessageLatencyDominatedByPropagation) {
  TwoHostNet f(100e6, st::fromSeconds(25e-3));  // 25 ms one-way
  SimTime rtt = 0;
  f.sim.spawn("server", [&] {
    auto listener = mgtest::listenOn(*f.stack_b, 80);
    auto conn = listener->accept();
    char c;
    conn->recv(&c, 1);
    conn->send(&c, 1);
  });
  f.sim.spawn("client", [&] {
    auto conn = f.stack_a->connect(f.b, 80);
    SimTime t0 = f.sim.now();
    conn->send("x", 1);
    char c;
    conn->recvExact(&c, 1);
    rtt = f.sim.now() - t0;
  });
  f.sim.run();
  EXPECT_GE(rtt, st::fromSeconds(50e-3));
  EXPECT_LT(rtt, st::fromSeconds(55e-3));
}

// Parameterized sweep: transfer integrity across sizes (property-style).
class TcpTransferSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(TcpTransferSweep, TransferIsLossless) {
  const size_t size = GetParam();
  TwoHostNet f;
  auto data = patternBytes(size, static_cast<std::uint8_t>(size & 0xff));
  std::vector<std::uint8_t> received(size);
  f.sim.spawn("server", [&] {
    auto listener = mgtest::listenOn(*f.stack_b, 80);
    auto conn = listener->accept();
    if (size > 0) conn->recvExact(received.data(), size);
  });
  f.sim.spawn("client", [&] {
    auto conn = f.stack_a->connect(f.b, 80);
    if (size > 0) conn->send(data.data(), size);
    conn->close();
  });
  f.sim.run();
  EXPECT_EQ(received, data);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TcpTransferSweep,
                         ::testing::Values(0, 1, 4, 100, 1460, 1461, 4096, 65536, 262144));

// Parameterized sweep: delivery is reliable across loss rates.
class TcpLossSweep : public ::testing::TestWithParam<double> {};

TEST_P(TcpLossSweep, DeliversDespiteLoss) {
  TwoHostNet f(100e6, st::fromSeconds(1e-3), GetParam());
  const size_t kSize = 128 * 1024;
  auto data = patternBytes(kSize, 9);
  std::vector<std::uint8_t> received(kSize);
  f.sim.spawn("server", [&] {
    auto listener = mgtest::listenOn(*f.stack_b, 80);
    auto conn = listener->accept();
    conn->recvExact(received.data(), kSize);
  });
  f.sim.spawn("client", [&] {
    auto conn = f.stack_a->connect(f.b, 80);
    conn->send(data.data(), kSize);
    conn->close();
  });
  f.sim.run();
  EXPECT_EQ(received, data);
}

INSTANTIATE_TEST_SUITE_P(LossRates, TcpLossSweep, ::testing::Values(0.0, 0.005, 0.02, 0.05));

// ------------------------------------------------------------ flow network --

namespace {
Topology lineTopo(double bw1 = 100e6, double bw2 = 100e6) {
  Topology t;
  t.addHost("a");
  t.addRouter("r");
  t.addHost("b");
  t.addLink("l0", 0, 1, bw1, st::fromSeconds(1e-3));
  t.addLink("l1", 1, 2, bw2, st::fromSeconds(2e-3));
  return t;
}
}  // namespace

TEST(FlowNetwork, EstimateMatchesFormula) {
  Simulator sim;
  NetworkOptions opts = flowMode();
  Network fn(sim, lineTopo(100e6, 10e6), opts);
  const std::int64_t bytes = 1'000'000;
  const double wire_bits = bytes * kByteOverhead * 8.0;
  const SimTime expected =
      kPerMessageOverhead + st::fromSeconds(3e-3) + st::fromSeconds(wire_bits / 10e6);
  EXPECT_NEAR(static_cast<double>(fn.flows()->estimate(0, 2, bytes)), static_cast<double>(expected), 10.0);
}

TEST(FlowNetwork, TransferBlocksForModeledDuration) {
  Simulator sim;
  Network fn(sim, lineTopo(), flowMode());
  SimTime took = 0;
  sim.spawn("p", [&] { took = transfer(fn, 0, 2, 100000); });
  sim.run();
  // An uncontended flow runs at the bottleneck rate for its whole life, so
  // the blocking transfer must land exactly on the analytic estimate.
  EXPECT_NEAR(static_cast<double>(took), static_cast<double>(fn.flows()->estimate(0, 2, 100000)),
              static_cast<double>(st::kMicrosecond));
  EXPECT_EQ(sim.metrics().counterValue("net.flow.started"), 1);
  EXPECT_EQ(sim.metrics().counterValue("net.flow.completed"), 1);
}

TEST(FlowNetwork, ContentionHalvesThroughput) {
  // Two equal concurrent flows on the same path: max-min gives each half the
  // bottleneck, so both take ~2x the solo duration and finish together.
  SimTime solo = 0;
  {
    Simulator sim;
    Network fn(sim, lineTopo(), flowMode());
    sim.spawn("p", [&] { solo = transfer(fn, 0, 2, 1'000'000); });
    sim.run();
  }
  Simulator sim;
  Network fn(sim, lineTopo(), flowMode());
  SimTime t1 = 0, t2 = 0;
  sim.spawn("p1", [&] { t1 = transfer(fn, 0, 2, 1'000'000); });
  sim.spawn("p2", [&] { t2 = transfer(fn, 0, 2, 1'000'000); });
  sim.run();
  const double wire_s = 1'000'000 * (1538.0 / 1460.0) * 8.0 / 100e6;  // solo drain
  const double tol = 2e-3 * static_cast<double>(st::kSecond);
  EXPECT_NEAR(static_cast<double>(t1), static_cast<double>(solo) + wire_s * st::kSecond, tol);
  EXPECT_NEAR(static_cast<double>(t2), static_cast<double>(t1), tol);
}

namespace {
// Two equal links in a row: n0 --L0-- n1 --L1-- n2, 100 Mbit/s each.
Topology twoHopTopo() {
  Topology t;
  t.addHost("n0");
  t.addRouter("n1");
  t.addHost("n2");
  t.addLink("L0", 0, 1, 100e6, st::fromSeconds(1e-3));
  t.addLink("L1", 1, 2, 100e6, st::fromSeconds(1e-3));
  return t;
}
}  // namespace

TEST(FlowMaxMin, SingleBottleneckSplitsEvenly) {
  Simulator sim;
  Topology t;
  t.addHost("a");
  t.addHost("b");
  t.addLink("l0", 0, 1, 100e6, st::fromSeconds(1e-3));
  Network fn(sim, std::move(t), flowMode());
  auto& eng = *fn.flows();
  FlowId f1 = 0, f2 = 0;
  double r1 = -1, r2 = -1, r1_after = -1;
  sim.scheduleAt(0, [&] {
    f1 = eng.startBits(0, 1, 100e6, 0, {}, {});  // 1 s of wire solo
    f2 = eng.startBits(0, 1, 25e6, 0, {}, {});
  });
  sim.scheduleAt(st::kMillisecond, [&] {
    r1 = eng.currentRateBps(f1);
    r2 = eng.currentRateBps(f2);
  });
  // f2 drains at 25e6 / 50e6 = 0.5 s; afterwards f1 has the link alone.
  sim.scheduleAt(600 * st::kMillisecond, [&] { r1_after = eng.currentRateBps(f1); });
  sim.run();
  EXPECT_NEAR(r1, 50e6, 1.0);
  EXPECT_NEAR(r2, 50e6, 1.0);
  EXPECT_NEAR(r1_after, 100e6, 1.0);
  EXPECT_EQ(sim.metrics().counterValue("net.flow.completed"), 2);
  EXPECT_DOUBLE_EQ(sim.metrics().gaugeValue("net.flow.active_peak"), 2.0);
}

TEST(FlowMaxMin, DirectionsShareNothing) {
  // The two directions of a full-duplex link are independent resources, as
  // in the packet model's per-direction transmit queues.
  Simulator sim;
  Topology t;
  t.addHost("a");
  t.addHost("b");
  t.addLink("l0", 0, 1, 100e6, st::fromSeconds(1e-3));
  Network fn(sim, std::move(t), flowMode());
  auto& eng = *fn.flows();
  FlowId fwd = 0, rev = 0;
  double r_fwd = -1, r_rev = -1;
  sim.scheduleAt(0, [&] {
    fwd = eng.startBits(0, 1, 50e6, 0, {}, {});
    rev = eng.startBits(1, 0, 50e6, 0, {}, {});
  });
  sim.scheduleAt(st::kMillisecond, [&] {
    r_fwd = eng.currentRateBps(fwd);
    r_rev = eng.currentRateBps(rev);
  });
  sim.run();
  EXPECT_NEAR(r_fwd, 100e6, 1.0);
  EXPECT_NEAR(r_rev, 100e6, 1.0);
}

TEST(FlowMaxMin, ParkingLotOracle) {
  // Parking lot: F0 spans both links; F1 and F3 load L0, F2 loads L1.
  //   L0 carries {F0, F1, F3} -> bottleneck share 100/3 Mbit/s fixes them;
  //   L1 then has 100 - 100/3 left for F2 alone -> 200/3 Mbit/s.
  Simulator sim;
  Network fn(sim, twoHopTopo(), flowMode());
  auto& eng = *fn.flows();
  FlowId f0 = 0, f1 = 0, f2 = 0, f3 = 0;
  double r0 = -1, r1 = -1, r2 = -1, r3 = -1;
  sim.scheduleAt(0, [&] {
    f0 = eng.startBits(0, 2, 1e9, 0, {}, {});
    f1 = eng.startBits(0, 1, 1e9, 0, {}, {});
    f2 = eng.startBits(1, 2, 1e9, 0, {}, {});
    f3 = eng.startBits(0, 1, 1e9, 0, {}, {});
  });
  sim.scheduleAt(st::kMillisecond, [&] {
    r0 = eng.currentRateBps(f0);
    r1 = eng.currentRateBps(f1);
    r2 = eng.currentRateBps(f2);
    r3 = eng.currentRateBps(f3);
  });
  sim.run();
  EXPECT_NEAR(r0, 100e6 / 3.0, 1.0);
  EXPECT_NEAR(r1, 100e6 / 3.0, 1.0);
  EXPECT_NEAR(r3, 100e6 / 3.0, 1.0);
  EXPECT_NEAR(r2, 200e6 / 3.0, 1.0);
}

TEST(FlowMaxMin, ReShareOnCompletionOracle) {
  // A (10 Mbit wire) and B (2.5 Mbit) start together on a 100 Mbit/s link:
  // both run at 50 Mbit/s until B drains at t=0.05 s; A then finishes its
  // remaining 7.5 Mbit alone at 100 Mbit/s, draining at t=0.125 s. Each
  // completion fires latency + per-message overhead after its drain.
  Simulator sim;
  NetworkOptions opts = flowMode();
  Topology t;
  t.addHost("a");
  t.addHost("b");
  t.addLink("l0", 0, 1, 100e6, st::fromSeconds(1e-3));
  Network fn(sim, std::move(t), opts);
  auto& eng = *fn.flows();
  SimTime done_a = 0, done_b = 0;
  sim.scheduleAt(0, [&] {
    eng.startBits(0, 1, 10e6, 0, [&] { done_a = sim.now(); }, {});
    eng.startBits(0, 1, 2.5e6, 0, [&] { done_b = sim.now(); }, {});
  });
  sim.run();
  const double tail = 1e-3 + st::toSeconds(kPerMessageOverhead);
  EXPECT_NEAR(st::toSeconds(done_b), 0.05 + tail, 1e-6);
  EXPECT_NEAR(st::toSeconds(done_a), 0.125 + tail, 1e-6);
}

TEST(FlowMaxMin, LinkDownAbortsActiveFlows) {
  Simulator sim;
  Network fn(sim, twoHopTopo(), flowMode());
  auto& eng = *fn.flows();
  std::string why;
  bool completed = false;
  sim.scheduleAt(0, [&] {
    eng.startBits(0, 2, 1e9, 0, [&] { completed = true; },
                  [&](const std::string& r) { why = r; });
  });
  sim.scheduleAt(10 * st::kMillisecond, [&] { fn.setLinkUp(1, false); });
  sim.run();
  EXPECT_EQ(why, "link_down");
  EXPECT_FALSE(completed);
  EXPECT_EQ(sim.metrics().counterValue("net.flow.aborted"), 1);
  EXPECT_EQ(eng.activeFlows(), 0);
}

TEST(FlowMaxMin, TransitNodeCrashAbortsFlows) {
  Simulator sim;
  Network fn(sim, twoHopTopo(), flowMode());
  auto& eng = *fn.flows();
  std::string why;
  sim.scheduleAt(0, [&] {
    eng.startBits(0, 2, 1e9, 0, {}, [&](const std::string& r) { why = r; });
  });
  sim.scheduleAt(10 * st::kMillisecond, [&] { fn.setNodeUp(1, false); });
  sim.run();
  EXPECT_EQ(why, "node_down");
  EXPECT_EQ(sim.metrics().counterValue("net.flow.aborted"), 1);
}

TEST(FlowMaxMin, DegradeResharesMidFlow) {
  // 10 Mbit wire alone at 100 Mbit/s; at t=0.04 s (4 Mbit drained) the link
  // degrades to 50 Mbit/s, so the last 6 Mbit take 0.12 s: drain at 0.16 s.
  Simulator sim;
  NetworkOptions opts = flowMode();
  Topology t;
  t.addHost("a");
  t.addHost("b");
  t.addLink("l0", 0, 1, 100e6, st::fromSeconds(1e-3));
  Network fn(sim, std::move(t), opts);
  auto& eng = *fn.flows();
  SimTime done = 0;
  sim.scheduleAt(0, [&] { eng.startBits(0, 1, 10e6, 0, [&] { done = sim.now(); }, {}); });
  sim.scheduleAt(40 * st::kMillisecond, [&] {
    LinkParams p = fn.linkParams(0);
    p.bandwidth_bps = 50e6;
    fn.applyLinkParams(0, p);
  });
  sim.run();
  const double tail = 1e-3 + st::toSeconds(kPerMessageOverhead);
  EXPECT_NEAR(st::toSeconds(done), 0.16 + tail, 1e-6);
  EXPECT_GT(eng.linkUtilization(0), 0.0);
}

TEST(FlowNetwork, NoRouteThrows) {
  Simulator sim;
  Topology t;
  t.addHost("a");
  t.addHost("b");
  Network fn(sim, std::move(t), flowMode());
  bool threw = false;
  sim.spawn("p", [&] {
    try {
      transfer(fn, 0, 1, 100);
    } catch (const mg::ConfigError&) {
      threw = true;
    }
  });
  sim.run();
  EXPECT_TRUE(threw);
}

TEST(FlowNetwork, SameNodeTransferIsJustOverhead) {
  Simulator sim;
  NetworkOptions opts = flowMode();
  Network fn(sim, lineTopo(), opts);
  SimTime took = -1;
  sim.spawn("p", [&] { took = transfer(fn, 0, 0, 12345); });
  sim.run();
  EXPECT_EQ(took, kPerMessageOverhead);
}

TEST(FlowNetwork, TimeScaleInvariantInNetworkTime) {
  auto netDuration = [](double scale) {
    Simulator sim;
    NetworkOptions opts = flowMode();
    opts.time_scale = scale;
    Network fn(sim, lineTopo(), opts);
    SimTime took = 0;
    sim.spawn("p", [&] { took = transfer(fn, 0, 2, 500000); });
    sim.run();
    return took;
  };
  const SimTime d1 = netDuration(1.0);
  const SimTime d8 = netDuration(8.0);
  EXPECT_NEAR(static_cast<double>(d1), static_cast<double>(d8), 5.0);
}

TEST(FlowMaxMin, DegradeToZeroStallsThenResumes) {
  // 10 Mbit wire alone at 100 Mbit/s; at t=0.04 s the link degrades to zero
  // bandwidth. The flow must *stall* (rate 0, no drain event, no progress)
  // rather than divide by zero or drain on a stale schedule. At t=0.1 s
  // capacity returns: the remaining 6 Mbit take 0.06 s, so drain lands at
  // 0.16 s exactly as if the link had been 50 Mbit/s the whole middle leg.
  Simulator sim;
  NetworkOptions opts = flowMode();
  Topology t;
  t.addHost("a");
  t.addHost("b");
  t.addLink("l0", 0, 1, 100e6, st::fromSeconds(1e-3));
  Network fn(sim, std::move(t), opts);
  auto& eng = *fn.flows();
  FlowId f = 0;
  SimTime done = 0;
  bool stalled_mid = false, consistent_mid = false;
  double rate_mid = -1;
  bool estimate_threw = false;
  sim.scheduleAt(0, [&] { f = eng.startBits(0, 1, 10e6, 0, [&] { done = sim.now(); }, {}); });
  sim.scheduleAt(40 * st::kMillisecond, [&] {
    LinkParams p = fn.linkParams(0);
    p.bandwidth_bps = 0;  // legal degraded state for the fluid model
    fn.applyLinkParams(0, p);
  });
  sim.scheduleAt(80 * st::kMillisecond, [&] {
    stalled_mid = eng.isStalled(f);
    rate_mid = eng.currentRateBps(f);
    consistent_mid = eng.indexConsistent();
    try {
      eng.estimate(0, 1, 1000);  // uncontended transfer would never finish
    } catch (const mg::ConfigError&) {
      estimate_threw = true;
    }
  });
  sim.scheduleAt(100 * st::kMillisecond, [&] {
    LinkParams p = fn.linkParams(0);
    p.bandwidth_bps = 100e6;
    fn.applyLinkParams(0, p);
  });
  sim.run();
  EXPECT_TRUE(stalled_mid);
  EXPECT_EQ(rate_mid, 0.0);
  EXPECT_TRUE(consistent_mid);
  EXPECT_TRUE(estimate_threw);
  EXPECT_EQ(sim.metrics().counterValue("net.flow.stalls"), 1);
  EXPECT_EQ(sim.metrics().counterValue("net.flow.completed"), 1);
  EXPECT_FALSE(eng.isStalled(f));  // gone: not stalled
  const double tail = 1e-3 + st::toSeconds(kPerMessageOverhead);
  EXPECT_NEAR(st::toSeconds(done), 0.16 + tail, 1e-6);
}

TEST(FlowMaxMin, StalledFlowStillAbortsOnLinkDown) {
  // A parked flow keeps its route in the reverse index, so a link_down on
  // its path must still find and abort it.
  Simulator sim;
  Topology t;
  t.addHost("a");
  t.addHost("b");
  t.addLink("l0", 0, 1, 100e6, st::fromSeconds(1e-3));
  Network fn(sim, std::move(t), flowMode());
  auto& eng = *fn.flows();
  std::string why;
  sim.scheduleAt(0, [&] {
    eng.startBits(0, 1, 1e9, 0, {}, [&](const std::string& r) { why = r; });
  });
  sim.scheduleAt(10 * st::kMillisecond, [&] {
    LinkParams p = fn.linkParams(0);
    p.bandwidth_bps = 0;
    fn.applyLinkParams(0, p);
  });
  sim.scheduleAt(20 * st::kMillisecond, [&] { fn.setLinkUp(0, false); });
  sim.run();
  EXPECT_EQ(why, "link_down");
  EXPECT_EQ(sim.metrics().counterValue("net.flow.stalls"), 1);
  EXPECT_EQ(sim.metrics().counterValue("net.flow.aborted"), 1);
  EXPECT_EQ(eng.activeFlows(), 0);
}

TEST(FlowMaxMin, AbortCallbackCanStartFlowsMidRecompute) {
  // Abort callbacks are *scheduled*, never run inside the recompute that
  // killed the flow — so a callback that immediately starts a replacement
  // flow (retry loops do) must observe a consistent index and get correct
  // max-min rates, and the other victim's callback must still fire.
  Simulator sim;
  Network fn(sim, twoHopTopo(), flowMode());
  auto& eng = *fn.flows();
  FlowId replacement = 0;
  std::string why1, why2;
  double repl_rate = -1;
  bool consistent_in_cb = false;
  sim.scheduleAt(0, [&] {
    eng.startBits(0, 2, 1e9, 0, {}, [&](const std::string& r) {
      why1 = r;
      consistent_in_cb = eng.indexConsistent();
      replacement = eng.startBits(0, 1, 1e9, 0, {}, {});  // L0 only
    });
    eng.startBits(0, 2, 1e9, 0, {}, [&](const std::string& r) { why2 = r; });
  });
  sim.scheduleAt(10 * st::kMillisecond, [&] { fn.setLinkUp(1, false); });
  sim.scheduleAt(20 * st::kMillisecond, [&] { repl_rate = eng.currentRateBps(replacement); });
  sim.run();  // replacement drains alone in ~10 s and completes
  EXPECT_EQ(why1, "link_down");
  EXPECT_EQ(why2, "link_down");
  EXPECT_TRUE(consistent_in_cb);
  EXPECT_NEAR(repl_rate, 100e6, 1.0);  // alone on L0 after the aborts
  EXPECT_TRUE(eng.indexConsistent());
  EXPECT_EQ(sim.metrics().counterValue("net.flow.aborted"), 2);
}

TEST(FlowMaxMin, IndexConsistentAfterChurn) {
  // Mixed churn — starts, completions, an abort, a degrade — must leave the
  // link→flow reverse index and busy accounting exactly consistent.
  Simulator sim;
  Network fn(sim, twoHopTopo(), flowMode());
  auto& eng = *fn.flows();
  sim.scheduleAt(0, [&] {
    eng.startBits(0, 2, 1e6, 0, {}, {});  // drains ~0.02 s, well before the faults
    eng.startBits(0, 1, 1e9, 0, {}, [](const std::string&) {});
    eng.startBits(1, 2, 10e6, 0, {}, {});
  });
  sim.scheduleAt(30 * st::kMillisecond, [&] {
    LinkParams p = fn.linkParams(1);
    p.bandwidth_bps = 25e6;
    fn.applyLinkParams(1, p);
    EXPECT_TRUE(eng.indexConsistent());
  });
  sim.scheduleAt(60 * st::kMillisecond, [&] { fn.setLinkUp(0, false); });
  sim.run();
  EXPECT_TRUE(eng.indexConsistent());
  EXPECT_EQ(eng.activeFlows(), 0);
  EXPECT_EQ(sim.metrics().counterValue("net.flow.completed"), 2);
  EXPECT_EQ(sim.metrics().counterValue("net.flow.aborted"), 1);
}

TEST(FlowNetwork, ZeroBandwidthParamsFlowOnlyAcceptance) {
  // Zero bandwidth is a legal degraded state for the fluid model but the
  // packet model divides by bandwidth per segment, so it must keep
  // rejecting it; negative capacity is meaningless everywhere.
  Simulator sim;
  Network fn(sim, lineTopo(), flowMode());
  LinkParams p = fn.linkParams(0);
  p.bandwidth_bps = 0;
  EXPECT_NO_THROW(fn.applyLinkParams(0, p));
  p.bandwidth_bps = -1;
  EXPECT_THROW(fn.applyLinkParams(0, p), mg::UsageError);

  Simulator psim;
  Topology pt;
  pt.addHost("a");
  pt.addHost("b");
  pt.addLink("l", 0, 1, 100e6, st::fromSeconds(1e-3));
  Network pn(psim, std::move(pt), {});
  LinkParams pp = pn.linkParams(0);
  pp.bandwidth_bps = 0;
  EXPECT_THROW(pn.applyLinkParams(0, pp), mg::UsageError);
}
