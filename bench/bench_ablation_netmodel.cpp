// Ablation A1 — packet-level vs flow-level vs hybrid network modeling.
//
// The paper flags NSE's cost and scalability as the key obstacle ("NSE
// performs detailed simulation, with high overhead ... does not scale up").
// The model is a runtime switch on ONE network class and ONE platform
// (mgrun --netmodel=packet|flow|hybrid), so this ablation holds
// everything else fixed — same MicroGridPlatform, same GRAM path, same
// quantum — and varies only the network model. It reports (a) the timing
// difference the cheaper models introduce and (b) the simulation cost
// (kernel events) of each.
#include "bench_common.h"
#include "net/network.h"

using namespace mgbench;

namespace {

double runWith(net::NetModelKind kind, npb::Benchmark b, std::uint64_t* events) {
  core::MicroGridOptions opts;
  opts.netmodel = kind;
  if (kind == net::NetModelKind::Hybrid) {
    // Escalate the gatekeeper/GIS control plane to packet detail; bulk MPI
    // traffic stays fluid.
    opts.netmodel_detail = {"port:1-4999"};
  }
  core::MicroGridPlatform p(core::topologies::alphaCluster(), opts);
  const double t = runNpbOn(p, b, npb::NpbClass::S, onePerHost(p));
  *events = p.simulator().eventsExecuted();
  return t;
}

}  // namespace

int main() {
  printHeader("Network-model ablation: packet vs flow vs hybrid", "paper §2.4.2 / §4");

  const npb::Benchmark benches[] = {npb::Benchmark::MG, npb::Benchmark::IS, npb::Benchmark::EP};

  util::Table table({"benchmark", "packet_s", "flow_s", "hybrid_s", "flow_diff_%",
                     "hybrid_diff_%", "packet_events", "flow_events", "hybrid_events"});
  bool ok = true;
  for (auto b : benches) {
    std::uint64_t ev_packet = 0, ev_flow = 0, ev_hybrid = 0;
    const double t_packet = runWith(net::NetModelKind::Packet, b, &ev_packet);
    const double t_flow = runWith(net::NetModelKind::Flow, b, &ev_flow);
    const double t_hybrid = runWith(net::NetModelKind::Hybrid, b, &ev_hybrid);

    const double flow_diff = util::percentError(t_packet, t_flow);
    const double hybrid_diff = util::percentError(t_packet, t_hybrid);
    table.row() << npb::benchmarkName(b) << t_packet << t_flow << t_hybrid << flow_diff
                << hybrid_diff << static_cast<long long>(ev_packet)
                << static_cast<long long>(ev_flow) << static_cast<long long>(ev_hybrid);
    if (ev_packet <= ev_flow) ok = false;  // detail must cost something
    if (std::abs(flow_diff) > 20.0) ok = false;
    if (std::abs(hybrid_diff) > 20.0) ok = false;
  }
  table.print(std::cout, "A1: timing agreement and event cost of the three models");
  std::cout << "Shape check: the packet model costs more events than flow and both\n"
            << "cheaper models agree within ~20% on timed results: " << (ok ? "PASS" : "FAIL")
            << "\n";
  return ok ? 0 : 1;
}
