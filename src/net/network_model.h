// The pluggable network-model interface (DESIGN.md §8).
//
// The platforms and fault injection talk to a NetworkModel, not to a
// concrete simulator: the same wiring runs at packet-level detail
// (PacketNetwork), as a max-min fair fluid model (FlowNetwork), or as a
// hybrid that carries the connections its selector escalates at packet
// detail and the rest as flows (HybridNetwork). The base class owns what
// the models share — the topology, the fault-aware routing table, the
// time_scale rescaling, and the link/node fault surface — so a fault
// injected through setLinkUp() behaves identically no matter which model
// is live. Packets and their per-node transport handlers belong to
// PacketNetwork alone; the fluid engine never sees one.
#pragma once

#include <cstdint>
#include <string>

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

  /// Should a connection from src to dst's listening port `port` be
  /// modeled at packet-level detail? Packet: always; Flow: never; Hybrid:
  /// per the --netmodel-detail selector. Platforms ask once, at connect
  /// time, and the answer holds for both directions of the connection.
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
  obs::Counter& c_route_recomputes_;

 private:
  sim::SimTime scaledSlow(sim::SimTime t) const;

  double time_scale_ = 1.0;
  // True when time_scale == 1.0 exactly: scaled() is then the identity and
  // skips the int -> double -> llround round-trip on every hop.
  bool unit_time_scale_ = false;
};

}  // namespace mg::net
