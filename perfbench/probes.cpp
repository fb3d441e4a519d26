#include "probes.h"

#include <vector>

#include "harness.h"
#include "sim/simulator.h"
#include "util/error.h"

namespace perfbench {

using namespace mg;

namespace {

/// Median of three timed repetitions of `body`, which returns its own
/// per-operation cost.
template <class F>
double medianOf3(F&& body) {
  std::vector<double> v;
  for (int i = 0; i < 3; ++i) v.push_back(body());
  return median(v);
}

}  // namespace

double probeDispatchNs() {
  constexpr int kChains = 64;
  constexpr std::int64_t kEvents = 1 << 20;
  return medianOf3([] {
    sim::Simulator sim;
    std::int64_t left = kEvents;
    // Each chain reschedules itself, so the heap holds kChains events.
    struct Chain {
      sim::Simulator* sim;
      std::int64_t* left;
      void operator()() const {
        if (--*left <= 0) return;
        sim->scheduleAt(sim->now() + 1 + (*left % 7), *this);
      }
    };
    for (int c = 0; c < kChains; ++c) sim.scheduleAt(c, Chain{&sim, &left});
    const double t0 = wallNow();
    sim.run();
    const double dt = wallNow() - t0;
    return dt * 1e9 / static_cast<double>(sim.eventsExecuted());
  });
}

double probeHandoffNs() {
  constexpr int kRounds = 20000;
  return medianOf3([] {
    sim::Simulator sim;
    sim::Process* ping = nullptr;
    sim::Process* pong = nullptr;
    bool done = false;
    // pong is spawned first so it is suspended before ping's first wake.
    pong = &sim.spawn("pong", [&] {
      for (;;) {
        sim.suspend();
        if (done) return;
        sim.wake(*ping);
      }
    });
    ping = &sim.spawn("ping", [&] {
      for (int i = 0; i < kRounds; ++i) {
        sim.wake(*pong);
        sim.suspend();
      }
      done = true;
      sim.wake(*pong);
    });
    const double t0 = wallNow();
    sim.run();
    const double dt = wallNow() - t0;
    const auto wakes = sim.metrics().counterValue("sim.process.wakes");
    if (wakes < 2 * kRounds) throw UsageError("handoff probe: ping-pong did not run");
    return dt * 1e9 / static_cast<double>(wakes);
  });
}

double probeRouteColumnMs(const net::Topology& topo) {
  std::vector<net::NodeId> hosts;
  for (net::NodeId n = 0; n < topo.nodeCount(); ++n) {
    if (topo.node(n).kind == net::NodeKind::Host) hosts.push_back(n);
  }
  if (hosts.size() < 2) return 0;
  // Up to 16 destinations spread evenly over the hosts; each first lookup
  // toward a destination builds that destination's column.
  const std::size_t k = std::min<std::size_t>(16, hosts.size() - 1);
  const net::RoutingTable routing(topo);
  std::vector<double> ms;
  for (std::size_t i = 1; i <= k; ++i) {
    const net::NodeId dst = hosts[i * (hosts.size() - 1) / k];
    const int before = routing.columnsBuilt();
    const double t0 = wallNow();
    const auto path = routing.path(hosts.front(), dst);
    const double dt = wallNow() - t0;
    if (routing.columnsBuilt() > before && !path.empty()) ms.push_back(dt * 1e3);
  }
  return median(ms);
}

double probeEconGenNs(const econ::WorkloadSpec& spec) {
  constexpr std::int64_t kJobs = 200000;
  return medianOf3([&spec] {
    econ::WorkloadSpec s = spec;
    s.jobs = kJobs;
    econ::WorkloadGenerator gen(s, 16);
    econ::Job job;
    std::int64_t n = 0;
    const double t0 = wallNow();
    while (gen.next(job)) ++n;
    const double dt = wallNow() - t0;
    return dt * 1e9 / static_cast<double>(n);
  });
}

}  // namespace perfbench
