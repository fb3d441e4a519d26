// Hybrid network model: fluid flows by default, full packet simulation for
// the connections the user asked to see in detail.
//
// The MicroGrid paper's tension is fidelity vs. scale: the packet model
// reproduces transport dynamics but costs O(hops) events per MTU, the flow
// model costs O(1) events per message but abstracts away queueing and loss.
// HybridNetwork keeps both wired to the same topology, routing table and
// fault plumbing. The choice is made once per connection, when it opens: a
// connection matching the detail selector (--netmodel-detail=host:GLOB /
// port:LO-HI patterns) runs TCP over the packet path in both directions,
// every other connection is a flow socket on the fluid engine. A packet
// exists only on an escalated connection, and only the packet path carries
// it. Both paths share metrics and spans, so observability output is
// uniform.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/flow_network.h"
#include "net/packet_network.h"

namespace mg::net {

/// Glob match with `*` (any run) and `?` (any one char); case-sensitive.
bool globMatch(std::string_view pattern, std::string_view text);

/// Compiled --netmodel-detail patterns. Accepted forms:
///   host:GLOB   escalate connections whose src or dst node name matches GLOB
///   port:N      escalate connections to listening port N
///   port:LO-HI  escalate listening ports in [LO, HI]
///   GLOB        shorthand for host:GLOB
/// A connection escalates if any pattern matches. Node globs are
/// precompiled to a per-node bitset so the per-connect test is O(ports)
/// with no string work.
class DetailSelector {
 public:
  DetailSelector() = default;
  DetailSelector(const Topology& topo, const std::vector<std::string>& patterns);

  bool matches(NodeId src, NodeId dst, std::uint16_t dst_port) const;
  bool empty() const { return !any_; }

 private:
  std::vector<char> node_detail_;                        // per-node flag
  std::vector<std::pair<int, int>> port_ranges_;         // inclusive
  bool any_ = false;
};

struct HybridNetworkOptions {
  PacketNetworkOptions packet;
  /// Fluid-path tuning; its time_scale is ignored (the packet option's
  /// time_scale governs the whole model).
  FlowNetworkOptions flow;
  /// Detail selector patterns (see DetailSelector).
  std::vector<std::string> detail;
};

class HybridNetwork : public PacketNetwork {
 public:
  HybridNetwork(sim::Simulator& sim, Topology topo, HybridNetworkOptions opts = {});

  NetModelKind kind() const override { return NetModelKind::Hybrid; }

  bool escalate(NodeId src, NodeId dst, std::uint16_t dst_port) const override {
    return selector_.matches(src, dst, dst_port);
  }

  FlowEngine* flows() override { return &engine_; }
  FlowEngine& engine() { return engine_; }
  const DetailSelector& selector() const { return selector_; }

  /// Both halves report: escalated traffic under net.packet.*, fluid flows
  /// under net.flow.* (the per-link series stay distinct by prefix).
  void registerTelemetry(obs::TelemetrySampler& sampler) override {
    PacketNetwork::registerTelemetry(sampler);
    engine_.registerTelemetry(sampler);
  }

  void saveState(obs::StateWriter& w) const override {
    PacketNetwork::saveState(w);
    engine_.saveState(w);
  }

 protected:
  // Faults hit both halves: packet queues purge, fluid flows abort/re-share.
  void onLinkDown(LinkId link) override;
  void onLinkUp(LinkId link) override;
  void onNodeDown(NodeId node) override;
  void onNodeUp(NodeId node) override;
  void onLinkParamsChanged(LinkId link) override;

 private:
  DetailSelector selector_;
  FlowEngine engine_;
};

}  // namespace mg::net
