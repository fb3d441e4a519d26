// Fig 13 + Fig 14 — NPB over the fictional vBNS coupled-cluster testbed:
// two processes at UCSD and two at UIUC, the path traversing LAN, OC3 and
// OC12 links and several routers; the major WAN bottleneck is varied
// 622 / 155 / 10 Mb/s.
//
// Paper result: "the performance of the NAS parallel benchmarks distributed
// over a wide-area coupled cluster is only mildly sensitive to network
// bandwidth. With the exception of EP, the latency effects dominate."
#include "bench_common.h"
#include "util/units.h"

using namespace mgbench;

int main() {
  printHeader("NPB over the vBNS distributed cluster testbed", "Fig 13 (topology) and Fig 14");

  // Fig 13: render the modeled topology.
  {
    auto cfg = core::topologies::vbns();
    const auto& topo = cfg.topology();
    util::Table links({"link", "from", "to", "bandwidth", "latency"});
    for (int l = 0; l < topo.linkCount(); ++l) {
      const auto& link = topo.link(l);
      links.row() << link.name << topo.node(link.a).name << topo.node(link.b).name
                  << util::formatBandwidth(link.bandwidth_bps)
                  << util::formatTime(sim::toSeconds(link.latency));
    }
    links.print(std::cout, "Fig 13: vBNS coupled-cluster topology (bottleneck at la-chi)");
  }

  const npb::Benchmark benches[] = {npb::Benchmark::LU, npb::Benchmark::BT, npb::Benchmark::MG,
                                    npb::Benchmark::EP};
  const double bottlenecks[] = {622e6, 155e6, 10e6};

  // Baseline: the same 4-process job on a single-site LAN cluster.
  std::vector<double> lan_times;
  for (auto b : benches) {
    core::MicroGridPlatform lan(core::topologies::alphaCluster());
    lan_times.push_back(runNpbOn(lan, b, npb::NpbClass::S, onePerHost(lan)));
  }

  util::Table table({"benchmark", "LAN_s", "622Mb/s", "155Mb/s", "10Mb/s", "slowdown_622_vs_LAN"});
  bool ok = true;
  int bi = 0;
  for (auto b : benches) {
    std::vector<double> times;
    for (double bw : bottlenecks) {
      core::topologies::VbnsParams params;
      params.bottleneck_bps = bw;
      core::MicroGridPlatform emu(core::topologies::vbns(params));
      // 2 processes at UCSD, 2 at UIUC.
      std::vector<grid::AllocationPart> parts = {{"ucsd0.ucsd.edu", 1},
                                                 {"ucsd1.ucsd.edu", 1},
                                                 {"uiuc0.uiuc.edu", 1},
                                                 {"uiuc1.uiuc.edu", 1}};
      times.push_back(runNpbOn(emu, b, npb::NpbClass::S, parts));
    }
    const double lan = lan_times[static_cast<size_t>(bi++)];
    table.row() << npb::benchmarkName(b) << lan << times[0] << times[1] << times[2]
                << times[0] / lan;
    // Mild sensitivity 622 -> 155; EP nearly WAN-insensitive.
    if (times[1] > times[0] * 1.5) ok = false;
    if (b == npb::Benchmark::EP) {
      if (times[2] > times[0] * 1.3) ok = false;
      if (times[0] > lan * 1.3) ok = false;
    } else {
      // Latency dominates: crossing the WAN hurts even at full bandwidth.
      if (times[0] < lan * 1.1) ok = false;
    }
  }
  table.print(std::cout, "Fig 14: NPB Class S over vBNS, varying the WAN bottleneck");
  std::cout << "Shape check: latency dominates (all but EP slow down on the WAN\n"
            << "even at 622 Mb/s; 622->155 Mb/s changes little): " << (ok ? "PASS" : "FAIL")
            << "\n";
  return ok ? 0 : 1;
}
