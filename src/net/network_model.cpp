#include "net/network_model.h"

#include <cmath>

#include "util/error.h"
#include "util/strings.h"

namespace mg::net {

NetModelKind parseNetModelKind(const std::string& s) {
  const std::string v = util::toLower(s);
  if (v == "packet") return NetModelKind::Packet;
  if (v == "flow") return NetModelKind::Flow;
  if (v == "hybrid") return NetModelKind::Hybrid;
  throw ConfigError("unknown network model '" + s + "' (expected packet, flow or hybrid)");
}

const char* netModelKindName(NetModelKind k) {
  switch (k) {
    case NetModelKind::Packet:
      return "packet";
    case NetModelKind::Flow:
      return "flow";
    case NetModelKind::Hybrid:
      return "hybrid";
  }
  return "?";
}

NetworkModel::NetworkModel(sim::Simulator& sim, Topology topo, double time_scale)
    : sim_(sim),
      topo_(std::move(topo)),
      routing_(topo_),
      c_route_recomputes_(sim.metrics().counter("net.route.recomputes")),
      time_scale_(time_scale) {
  if (time_scale_ <= 0) throw UsageError("time_scale must be positive");
  unit_time_scale_ = (time_scale_ == 1.0);
}

sim::SimTime NetworkModel::scaledSlow(sim::SimTime t) const {
  return static_cast<sim::SimTime>(std::llround(static_cast<double>(t) * time_scale_));
}

void NetworkModel::recomputeRoutes() {
  routing_.recompute(topo_);
  c_route_recomputes_.inc();
}

void NetworkModel::setLinkUp(LinkId link, bool up) {
  Link& l = topo_.mutableLink(link);
  if (l.up == up) return;
  l.up = up;
  if (up) {
    onLinkUp(link);
  } else {
    onLinkDown(link);
  }
  recomputeRoutes();
}

void NetworkModel::setNodeUp(NodeId node, bool up) {
  Node& n = topo_.mutableNode(node);
  if (n.up == up) return;
  n.up = up;
  if (up) {
    onNodeUp(node);
  } else {
    onNodeDown(node);
  }
  recomputeRoutes();
}

LinkParams NetworkModel::linkParams(LinkId link) const {
  const Link& l = topo_.link(link);
  return LinkParams{l.bandwidth_bps, l.latency, l.loss_rate};
}

void NetworkModel::applyLinkParams(LinkId link, const LinkParams& params) {
  // Zero bandwidth is a legal *degraded* state (fluid flows stall on it and
  // routing steers new paths around it); models that cannot represent it
  // reject it in validateLinkParams (the packet model divides by bandwidth
  // per segment).
  if (params.bandwidth_bps < 0) throw UsageError("link bandwidth must be non-negative");
  if (params.latency < 0 || params.loss_rate < 0 || params.loss_rate >= 1.0) {
    throw UsageError("bad link parameters");
  }
  validateLinkParams(link, params);
  Link& l = topo_.mutableLink(link);
  l.bandwidth_bps = params.bandwidth_bps;
  l.latency = params.latency;
  l.loss_rate = params.loss_rate;
  onLinkParamsChanged(link);
  recomputeRoutes();
}

void NetworkModel::saveState(obs::StateWriter& w) const {
  w.u64("net.links", topo_.linkCount());
  for (LinkId l = 0; l < topo_.linkCount(); ++l) {
    const Link& link = topo_.link(l);
    w.str("link", link.name);
    w.boolean("up", link.up);
    w.f64("bw", link.bandwidth_bps);
    w.i64("lat", link.latency);
    w.f64("loss", link.loss_rate);
  }
  w.u64("net.nodes", topo_.nodeCount());
  for (NodeId n = 0; n < topo_.nodeCount(); ++n) {
    const Node& node = topo_.node(n);
    w.str("node", node.name);
    w.boolean("up", node.up);
  }
}

}  // namespace mg::net
