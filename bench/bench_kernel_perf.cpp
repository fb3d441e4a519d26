// Ablation A2 — simulation-kernel micro-benchmarks (google-benchmark):
// event throughput, process context-switch cost, channel operations, and
// packet-network forwarding rate. These bound how large a virtual Grid the
// tool can emulate per real second (the paper's scalability concern).
#include <benchmark/benchmark.h>

#include <array>
#include <functional>
#include <memory>

#include "net/network.h"
#include "net/tcp.h"
#include "sim/channel.h"
#include "sim/channel.h"
#include "sim/simulator.h"
#include "util/strings.h"

using namespace mg;

static void BM_EventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    long long sum = 0;
    for (int i = 0; i < 10000; ++i) {
      sim.scheduleAt(i, [&sum, i] { sum += i; });
    }
    sim.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventDispatch)->Unit(benchmark::kMillisecond);

static void BM_ScheduleCancelChurn(benchmark::State& state) {
  // Timer churn: schedule far-future timeouts and cancel them before they
  // fire — the TCP-RTO / suspendFor pattern. Measures cancellation cost and
  // (in the arena kernel) that cancelled slots are recycled instead of
  // left as tombstones to pop later.
  for (auto _ : state) {
    sim::Simulator sim;
    long long sum = 0;
    for (int i = 0; i < 10000; ++i) {
      auto id = sim.scheduleAt(1000000 + i, [&sum, i] { sum += i; });
      sim.cancel(id);
    }
    sim.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_ScheduleCancelChurn)->Unit(benchmark::kMillisecond);

static void BM_SuspendForWake(benchmark::State& state) {
  // suspendFor with an early wake: every round arms a timeout and retires
  // it unexpired. Exercises the handoff path plus timeout cancellation.
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Process* sleeper = nullptr;
    int woken = 0;
    sim.spawn("sleeper", [&] {
      sleeper = &sim.currentProcess();
      for (int i = 0; i < 1000; ++i) {
        if (sim.suspendFor(1000000)) ++woken;
      }
    });
    sim.spawn("waker", [&] {
      for (int i = 0; i < 1000; ++i) {
        sim.delay(1);
        sim.wake(*sleeper);
      }
    });
    sim.run();
    benchmark::DoNotOptimize(woken);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SuspendForWake)->Unit(benchmark::kMillisecond);

static void BM_ProcessContextSwitch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    sim.spawn("p", [&] {
      for (int i = 0; i < 1000; ++i) sim.delay(1);
    });
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ProcessContextSwitch)->Unit(benchmark::kMillisecond);

static void BM_ChannelPingPong(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Channel<int> a(sim), b(sim);
    sim.spawn("ping", [&] {
      for (int i = 0; i < 500; ++i) {
        a.send(i);
        b.recv();
      }
    });
    sim.spawn("pong", [&] {
      for (int i = 0; i < 500; ++i) {
        b.send(a.recv());
      }
    });
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ChannelPingPong)->Unit(benchmark::kMillisecond);

static void BM_PacketForwarding(benchmark::State& state) {
  const int hops = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    net::Topology topo;
    net::NodeId prev = topo.addHost("h0");
    for (int i = 1; i <= hops; ++i) {
      net::NodeId next = (i == hops) ? topo.addHost(util::format("h%d", i))
                                     : topo.addRouter(util::format("r%d", i));
      topo.addLink(util::format("l%d", i), prev, next, 1e9, 1000);
      prev = next;
    }
    net::Network net(sim, std::move(topo), {});
    net.attachHost(prev, [](net::Packet&&) {});
    for (int i = 0; i < 1000; ++i) {
      net::Packet p;
      p.src = 0;
      p.dst = prev;
      p.payload.resize(64);
      net.send(std::move(p));
    }
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000 * hops);
  state.SetLabel(std::to_string(hops) + " hops");
}
BENCHMARK(BM_PacketForwarding)->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

static void BM_TcpThroughputSim(benchmark::State& state) {
  // Cost of simulating a 1 MB TCP transfer (the NSE-overhead concern).
  for (auto _ : state) {
    sim::Simulator sim;
    net::Topology topo;
    auto a = topo.addHost("a");
    auto b = topo.addHost("b");
    topo.addLink("l", a, b, 100e6, sim::fromSeconds(0.1e-3));
    net::Network net(sim, std::move(topo), {});
    net::TcpStack sa(net, a), sb(net, b);
    sim.spawn("server", [&] {
      sim::Channel<std::shared_ptr<net::TcpConnection>> backlog(sim);
      auto listener = sb.listen(80, [&backlog](std::shared_ptr<net::TcpConnection> c) {
        if (c) backlog.trySend(std::move(c));
      });
      auto conn = backlog.recv();
      std::vector<std::uint8_t> sink(1 << 20);
      conn->recvExact(sink.data(), sink.size());
    });
    sim.spawn("client", [&] {
      auto conn = sa.connect(b, 80);
      std::vector<std::uint8_t> data(1 << 20, 0xab);
      conn->send(data.data(), data.size());
      conn->close();
    });
    sim.run();
  }
  state.SetBytesProcessed(state.iterations() * (1 << 20));
}
BENCHMARK(BM_TcpThroughputSim)->Unit(benchmark::kMillisecond);

static void BM_FlowChurn(benchmark::State& state) {
  // Fluid-model flow churn on a star of clusters: 8 edge switches under one
  // core, 16 hosts each. Every host keeps one flow alive to a host in the
  // next cluster over, re-starting it on completion — so every completion
  // re-shares and every start re-shares, the exact pattern flow-heavy grid
  // workloads (stage-in/stage-out) generate. Arg(0) runs the full-recompute
  // oracle, Arg(1) the component-scoped incremental engine; the
  // visits_per_recompute counter is the scoping win (and what CI gates on).
  const bool incremental = state.range(0) != 0;
  constexpr int kClusters = 8;
  constexpr int kHostsPer = 16;
  constexpr int kRounds = 40;  // completion-chained churn per iteration
  std::int64_t recomputes = 0, visits = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    net::Topology topo;
    const auto core = topo.addRouter("core");
    std::array<net::NodeId, kClusters * kHostsPer> hosts{};
    for (int c = 0; c < kClusters; ++c) {
      const auto sw = topo.addRouter(util::format("sw%d", c));
      topo.addLink(util::format("up%d", c), sw, core, 1e9, sim::fromSeconds(0.2e-3));
      for (int h = 0; h < kHostsPer; ++h) {
        const int idx = c * kHostsPer + h;
        hosts[static_cast<std::size_t>(idx)] = topo.addHost(util::format("h%d", idx));
        topo.addLink(util::format("eth%d", idx), hosts[static_cast<std::size_t>(idx)], sw,
                     100e6, sim::fromSeconds(0.05e-3));
      }
    }
    net::NetworkOptions opts;
    opts.kind = net::NetModelKind::Flow;
    opts.incremental = incremental;
    net::Network fn(sim, std::move(topo), opts);
    auto& eng = *fn.flows();
    std::function<void(int, int)> restart = [&](int idx, int rounds_left) {
      if (rounds_left <= 0) return;
      const int dst = (idx + kHostsPer) % (kClusters * kHostsPer);
      eng.startBits(hosts[static_cast<std::size_t>(idx)], hosts[static_cast<std::size_t>(dst)],
                    2e6, 0, [&restart, idx, rounds_left] { restart(idx, rounds_left - 1); }, {});
    };
    sim.scheduleAt(0, [&] {
      for (int idx = 0; idx < kClusters * kHostsPer; ++idx) restart(idx, kRounds);
    });
    sim.run();
    recomputes += sim.metrics().counterValue("net.flow.share_recomputes");
    visits += sim.metrics().counterValue("net.flow.recompute_flow_visits");
  }
  state.SetItemsProcessed(recomputes);
  state.counters["visits_per_recompute"] =
      benchmark::Counter(static_cast<double>(visits) / static_cast<double>(recomputes));
}
BENCHMARK(BM_FlowChurn)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
