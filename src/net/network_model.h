// The pluggable network-model interface (DESIGN.md §8).
//
// Transports (HostStack/TCP/UDP), the platforms, and fault injection talk to
// a NetworkModel, not to a concrete simulator: the same wiring runs at
// packet-level detail (PacketNetwork), as a max-min fair fluid model
// (FlowNetwork), or as a hybrid that escalates selected traffic to packet
// detail (HybridNetwork). The base class owns everything the models share —
// the topology, the fault-aware routing table, per-node transport handlers,
// the time_scale rescaling, and the link/node fault surface — so a fault
// injected through setLinkUp() behaves identically no matter which model is
// live.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/packet.h"
#include "net/topology.h"
#include "obs/sampler.h"
#include "sim/simulator.h"

namespace mg::net {

/// Which network model a platform wires in (mgrun --netmodel=...).
enum class NetModelKind { Packet, Flow, Hybrid };

/// Parse "packet" / "flow" / "hybrid"; throws ConfigError otherwise.
NetModelKind parseNetModelKind(const std::string& s);
const char* netModelKindName(NetModelKind k);

/// A link's mutable performance parameters, for fault injection
/// (link_degrade / restore). Changing them recomputes routing, since the
/// Dijkstra weights depend on latency and bandwidth.
struct LinkParams {
  double bandwidth_bps = 0;
  sim::SimTime latency = 0;
  double loss_rate = 0;
};

class FlowEngine;

class NetworkModel {
 public:
  using PacketHandler = std::function<void(Packet&&)>;

  /// `time_scale` is kernel-clock nanoseconds per network nanosecond; the
  /// MicroGrid platform passes 1/rate so virtual-time behaviour is preserved
  /// at any emulation rate.
  NetworkModel(sim::Simulator& sim, Topology topo, double time_scale);
  virtual ~NetworkModel() = default;
  NetworkModel(const NetworkModel&) = delete;
  NetworkModel& operator=(const NetworkModel&) = delete;

  virtual NetModelKind kind() const = 0;

  sim::Simulator& simulator() { return sim_; }
  const Topology& topology() const { return topo_; }
  const RoutingTable& routing() const { return routing_; }

  /// Install the transport dispatch for a host node. One handler per node;
  /// replacing is allowed (tests), unhandled packets are dropped.
  void attachHost(NodeId node, PacketHandler handler);

  /// Inject a packet at its source node; delivery invokes the destination
  /// node's handler at the model's notion of the right simulated time.
  virtual void send(Packet&& pkt) = 0;

  // --- fault surface (src/fault drives these) ---
  //
  // Each mutation fires exactly once per actual state change (a same-state
  // call is a no-op), invokes the model-specific hook, then recomputes
  // routes.

  /// Administratively set a link up or down.
  void setLinkUp(LinkId link, bool up);

  /// Mark a node up or down (host crash / restart). A down node neither
  /// receives traffic nor forwards (routing recomputes around it).
  void setNodeUp(NodeId node, bool up);
  bool nodeUp(NodeId node) const { return topo_.node(node).up; }

  LinkParams linkParams(LinkId link) const;
  void applyLinkParams(LinkId link, const LinkParams& params);

  /// Convert a network-time duration to kernel-clock time (multiplies by
  /// time_scale). Transports use this for their protocol timers so that RTO
  /// and friends stay correct in rescaled emulations.
  sim::SimTime scaleDuration(sim::SimTime t) const { return scaled(t); }
  double timeScale() const { return time_scale_; }

  // --- model-selection surface ---

  /// The fluid engine, when this model has one (Flow/Hybrid); nullptr for
  /// the pure packet model.
  virtual FlowEngine* flows() { return nullptr; }

  /// Should traffic between src and dst on destination port `port` be
  /// modeled at packet-level detail? Packet: always; Flow: never; Hybrid:
  /// per the --netmodel-detail selector. Platforms use this to pick the
  /// socket implementation per connection.
  virtual bool escalate(NodeId src, NodeId dst, std::uint16_t port) const {
    (void)src;
    (void)dst;
    (void)port;
    return true;
  }

  // --- telemetry surface (DESIGN.md §10) ---

  /// Register this model's time-resolved probes on `sampler`: per-link busy
  /// utilization and whatever per-model health series apply (active flows,
  /// wire throughput). Base: nothing.
  virtual void registerTelemetry(obs::TelemetrySampler& sampler) { (void)sampler; }

  // --- state-capture surface (DESIGN.md §11) ---

  /// Fold the model's observable state into a canonical digest: the base
  /// folds every link's up flag and live parameters plus every node's up
  /// flag; models append their own dynamic state (queues, in-flight
  /// packets, RNG stream, fluid flows). Strictly read-only; call between
  /// events.
  virtual void saveState(obs::StateWriter& w) const;

 protected:
  friend class FlowEngine;

  // Model-specific reactions, invoked after the state flip and before the
  // routing recompute. Fluid models react with *scoped* work:
  // down/params hooks touch only the contention component containing the
  // changed element (net.flow.recompute_flows histogram records the scope),
  // and up hooks are no-ops for flows (a restored element carries none).
  virtual void onLinkDown(LinkId link) { (void)link; }
  virtual void onLinkUp(LinkId link) { (void)link; }
  virtual void onNodeDown(NodeId node) { (void)node; }
  virtual void onNodeUp(NodeId node) { (void)node; }
  virtual void onLinkParamsChanged(LinkId link) { (void)link; }
  /// Synchronous, model-specific validation of a params change (throws on
  /// error, before anything is scheduled).
  virtual void validateLinkParams(LinkId link, const LinkParams& params) const {
    (void)link;
    (void)params;
  }

  void recomputeRoutes();
  sim::SimTime scaled(sim::SimTime t) const {
    if (unit_time_scale_) return t;
    return scaledSlow(t);
  }

  sim::Simulator& sim_;
  Topology topo_;
  RoutingTable routing_;
  std::vector<PacketHandler> handlers_;
  obs::Counter& c_route_recomputes_;

 private:
  sim::SimTime scaledSlow(sim::SimTime t) const;

  double time_scale_ = 1.0;
  // True when time_scale == 1.0 exactly: scaled() is then the identity and
  // skips the int -> double -> llround round-trip on every hop.
  bool unit_time_scale_ = false;
};

}  // namespace mg::net
