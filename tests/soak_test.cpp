// Soak/stress test for the event kernel and the packet network: 1000
// virtual hosts across 20 WAN-joined campus clusters, 60 seconds of virtual
// time, link and node faults flipping throughout. Excluded from the default
// ctest run (CONFIGURATIONS soak); run with `ctest -C soak -R soak`.
//
// What it guards:
//   - the run completes at all (the ctest TIMEOUT property is the backstop),
//   - stable memory: the event arena's slot high-water mark reaches steady
//     state during warmup and stays bounded for the rest of the run,
//   - the event population fully drains once traffic stops,
//   - loss and link/node faults really drop packets under sustained load.
#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/network.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "util/strings.h"

using namespace mg;
namespace st = mg::sim;

namespace {

constexpr st::SimTime kUs = st::kMicrosecond;
constexpr st::SimTime kMs = st::kMillisecond;
constexpr st::SimTime kSec = st::kSecond;

constexpr int kClusters = 20;
constexpr int kHostsPerCluster = 50;  // 20 * 50 = 1000 virtual hosts

/// 20 campus clusters (router + 50 hosts at 50us) chained by 30ms WAN links,
/// a scaled-up version of the paper's multi-site grid. The chain (not a
/// ring) keeps routes unique; every adjacent-cluster packet crosses exactly
/// one WAN link.
net::Topology bigGrid() {
  net::Topology topo;
  std::vector<net::NodeId> routers;
  for (int c = 0; c < kClusters; ++c) {
    auto r = topo.addRouter(util::format("r%d", c));
    routers.push_back(r);
    for (int i = 0; i < kHostsPerCluster; ++i) {
      auto h = topo.addHost(util::format("h%d_%d", c, i));
      topo.addLink(util::format("l%d_%d", c, i), h, r, 100e6, 50 * kUs, 256 * 1024);
    }
  }
  for (int c = 0; c + 1 < kClusters; ++c) {
    topo.addLink(util::format("wan%d", c), routers[static_cast<std::size_t>(c)],
                 routers[static_cast<std::size_t>(c + 1)], 45e6, 30 * kMs, 1 << 20,
                 /*loss=*/0.01);
  }
  return topo;
}

}  // namespace

TEST(Soak, ThousandHostsSixtySecondsUnderFaults) {
  st::Simulator sim;
  net::Network net(sim, bigGrid(), net::NetworkOptions{});

  const auto& t = net.topology();
  std::vector<net::NodeId> hosts;
  for (net::NodeId n = 0; n < t.nodeCount(); ++n) {
    if (t.node(n).kind == net::NodeKind::Host) hosts.push_back(n);
  }
  ASSERT_EQ(hosts.size(), static_cast<std::size_t>(kClusters * kHostsPerCluster));

  long delivered = 0;
  for (net::NodeId h : hosts) {
    net.attachHost(h, [&delivered](net::Packet&&) { ++delivered; });
  }

  // Every host streams a packet to a rotating peer in the adjacent cluster
  // every 500ms until the 60s mark: sustained load on every WAN link.
  constexpr st::SimTime kEnd = 60 * kSec;
  constexpr st::SimTime kPeriod = 500 * kMs;
  long sent = 0;
  auto hostAt = [&hosts](int cluster, int idx) {
    return hosts[static_cast<std::size_t>(cluster * kHostsPerCluster + idx)];
  };
  std::vector<std::unique_ptr<std::function<void(int)>>> senders;
  for (int c = 0; c < kClusters; ++c) {
    for (int i = 0; i < kHostsPerCluster; ++i) {
      senders.push_back(std::make_unique<std::function<void(int)>>());
      auto* self = senders.back().get();
      *self = [&, self, c, i](int step) {
        const int dst_cluster = (c + 1 < kClusters) ? c + 1 : c - 1;
        net::Packet p;
        p.src = hostAt(c, i);
        p.dst = hostAt(dst_cluster, (i * 7 + step) % kHostsPerCluster);
        p.payload.assign(static_cast<std::size_t>(120 + (i % 64)), 0x5a);
        net.send(std::move(p));
        ++sent;
        if (sim.now() + kPeriod < kEnd) {
          sim.scheduleAfter(kPeriod, [self, step] { (*self)(step + 1); });
        }
      };
      // Stagger the start so the event population ramps smoothly.
      sim.scheduleAt((c * kHostsPerCluster + i) % 500 * kMs, [self] { (*self)(0); });
    }
  }

  // Faults: WAN links flap (down 500ms every ~2s, rotating along the chain)
  // and one host per cluster crashes for a second every 5s.
  for (int k = 0; k < 28; ++k) {
    const net::LinkId wan = net.topology().findLink("wan" + std::to_string(k % (kClusters - 1)));
    sim.scheduleAt((2 * k + 1) * kSec, [&net, wan] { net.setLinkUp(wan, false); });
    sim.scheduleAt((2 * k + 1) * kSec + 500 * kMs, [&net, wan] { net.setLinkUp(wan, true); });
  }
  for (int k = 1; k <= 11; ++k) {
    const net::NodeId victim = hostAt(k % kClusters, 7);
    sim.scheduleAt(k * 5 * kSec, [&net, victim] { net.setNodeUp(victim, false); });
    sim.scheduleAt(k * 5 * kSec + kSec, [&net, victim] { net.setNodeUp(victim, true); });
  }

  // Arena high-water probe: by 10s every sender chain is live and the
  // steady-state event population is established.
  std::size_t warm_slots = 0;
  sim.scheduleAt(10 * kSec, [&] { warm_slots = sim.eventArenaSlots(); });

  sim.runUntil(kEnd);
  EXPECT_EQ(sim.now(), kEnd);
  sim.run();  // drain in-flight packets past the last send

  // Steady memory: slabs only grow on demand, so the final size IS the
  // high-water mark. It must not creep past the warmed-up population —
  // growth after warmup means slots are leaking instead of recycling.
  const std::size_t final_slots = sim.eventArenaSlots();
  EXPECT_GT(warm_slots, 0u);
  EXPECT_LE(final_slots, 2 * warm_slots + 1024);

  // Everything drained, nothing deadlocked, the load was real.
  EXPECT_EQ(sim.pendingEventCount(), 0u);
  EXPECT_GT(sent, 100000L);
  EXPECT_GT(delivered, 0L);
  EXPECT_LT(delivered, sent);  // loss + faults really bit
  EXPECT_GT(sim.metrics().counterValue("net.packet.dropped_down"), 0);
  EXPECT_GT(sim.metrics().counterValue("net.packet.dropped_loss"), 0);
}
