#include "net/network.h"

#include <charconv>
#include <cmath>

#include "util/error.h"
#include "util/log.h"
#include "util/strings.h"

namespace mg::net {
namespace {

/// Per-packet processing delay at each intermediate router.
constexpr sim::SimTime kRouterForwardDelay = 10 * sim::kMicrosecond;

int parsePort(std::string_view s, const std::string& pattern) {
  int v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size() || v < 0 || v > 65535) {
    throw ConfigError("bad port in --netmodel-detail pattern: " + pattern);
  }
  return v;
}

}  // namespace

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

// ------------------------------------------------------------- selector --

DetailSelector::DetailSelector(const Topology& topo, const std::vector<std::string>& patterns) {
  node_detail_.assign(static_cast<std::size_t>(topo.nodeCount()), 0);
  for (const std::string& pattern : patterns) {
    if (pattern.empty()) throw ConfigError("empty --netmodel-detail pattern");
    std::string_view body = pattern;
    if (body.starts_with("port:")) {
      body.remove_prefix(5);
      const std::size_t dash = body.find('-');
      int lo, hi;
      if (dash == std::string_view::npos) {
        lo = hi = parsePort(body, pattern);
      } else {
        lo = parsePort(body.substr(0, dash), pattern);
        hi = parsePort(body.substr(dash + 1), pattern);
      }
      if (lo > hi) throw ConfigError("empty port range in --netmodel-detail pattern: " + pattern);
      port_ranges_.emplace_back(lo, hi);
      any_ = true;
      continue;
    }
    if (body.starts_with("host:")) body.remove_prefix(5);
    bool matched = false;
    for (NodeId n = 0; n < topo.nodeCount(); ++n) {
      if (util::globMatch(body, topo.node(n).name)) {
        node_detail_[static_cast<std::size_t>(n)] = 1;
        matched = true;
      }
    }
    if (!matched) {
      throw ConfigError("--netmodel-detail host pattern matches no node: " + pattern);
    }
    any_ = true;
  }
}

bool DetailSelector::matches(NodeId src, NodeId dst, std::uint16_t dst_port) const {
  if (!any_) return false;
  if (!node_detail_.empty() &&
      (node_detail_[static_cast<std::size_t>(src)] || node_detail_[static_cast<std::size_t>(dst)])) {
    return true;
  }
  for (const auto& [lo, hi] : port_ranges_) {
    if (dst_port >= lo && dst_port <= hi) return true;
  }
  return false;
}

// -------------------------------------------------------------- network --

Network::PacketHalf::PacketHalf(obs::MetricsRegistry& m, const Topology& topo,
                                std::uint64_t seed)
    : c_sent(m.counter("net.packet.sent")),
      c_delivered(m.counter("net.packet.delivered")),
      c_dropped_queue(m.counter("net.packet.dropped_queue")),
      c_dropped_loss(m.counter("net.packet.dropped_loss")),
      c_dropped_down(m.counter("net.packet.dropped_down")),
      c_dropped_link_down(m.counter("net.packet.drop_link_down")),
      c_dropped_node_down(m.counter("net.packet.drop_node_down")),
      c_bytes_delivered(m.counter("net.packet.bytes_delivered")),
      c_wire_bytes(m.counter("net.packet.wire_bytes_sent")),
      rng(seed),
      handlers(static_cast<std::size_t>(topo.nodeCount())),
      link_queues(static_cast<std::size_t>(topo.linkCount()) * 2) {}

Network::Network(sim::Simulator& sim, Topology topo, NetworkOptions opts)
    : sim_(sim),
      topo_(std::move(topo)),
      routing_(topo_),
      c_route_recomputes_(sim.metrics().counter("net.route.recomputes")),
      time_scale_(opts.time_scale) {
  if (time_scale_ <= 0) throw UsageError("time_scale must be positive");
  unit_time_scale_ = (time_scale_ == 1.0);
  if (opts.kind != NetModelKind::Flow) packets_.emplace(sim.metrics(), topo_, opts.seed);
  if (opts.kind != NetModelKind::Packet) flows_.emplace(*this, opts.incremental);
  if (opts.kind == NetModelKind::Hybrid) selector_ = DetailSelector(topo_, opts.detail);
}

sim::SimTime Network::scaledSlow(sim::SimTime t) const {
  return static_cast<sim::SimTime>(std::llround(static_cast<double>(t) * time_scale_));
}

void Network::recomputeRoutes() {
  routing_.recompute(topo_);
  c_route_recomputes_.inc();
}

void Network::setLinkUp(LinkId link, bool up) {
  Link& l = topo_.mutableLink(link);
  if (l.up == up) return;
  l.up = up;
  if (!up) {
    if (packets_) dropQueued(link, packets_->c_dropped_link_down);
    if (flows_) flows_->abortFlowsOnLink(link, "link_down");
  }
  recomputeRoutes();
}

void Network::setNodeUp(NodeId node, bool up) {
  Node& n = topo_.mutableNode(node);
  if (n.up == up) return;
  n.up = up;
  if (!up) {
    if (packets_) {
      // Packets queued *toward* the dead node are lost (they could only
      // blackhole at delivery). The outbound direction is deliberately left
      // to drain: those packets were already handed to the NIC before the
      // crash instant — they carry the dying kernel's last-gasp RSTs, which
      // is how established peers learn of the crash promptly. The links
      // themselves stay up: a crashed host's cable is still plugged in.
      for (LinkId lid : topo_.linksAt(node)) {
        const Link& lk = topo_.link(lid);
        const NodeId peer = (lk.a == node) ? lk.b : lk.a;
        const int dir_in = (peer == lk.a) ? 0 : 1;  // peer -> node
        dropQueuedDir(lid, dir_in, packets_->c_dropped_node_down);
      }
    }
    // Endpoint or transit: a crashed router stops forwarding, so flows
    // routed through it die exactly as their packets would.
    if (flows_) flows_->abortFlowsAtNode(node, "node_down");
  }
  recomputeRoutes();
}

LinkParams Network::linkParams(LinkId link) const {
  const Link& l = topo_.link(link);
  return LinkParams{l.bandwidth_bps, l.latency, l.loss_rate};
}

void Network::applyLinkParams(LinkId link, const LinkParams& params) {
  if (params.bandwidth_bps < 0) throw UsageError("link bandwidth must be non-negative");
  if (params.latency < 0 || params.loss_rate < 0 || params.loss_rate >= 1.0) {
    throw UsageError("bad link parameters");
  }
  if (packets_ && params.bandwidth_bps <= 0) {
    throw UsageError("packet model needs positive link bandwidth");
  }
  Link& l = topo_.mutableLink(link);
  l.bandwidth_bps = params.bandwidth_bps;
  l.latency = params.latency;
  l.loss_rate = params.loss_rate;
  // A degrade under escalated packet traffic never reaches the engine; only
  // the contention component touching the link is re-shared.
  if (flows_) flows_->onLinkChanged(link);
  recomputeRoutes();
}

void Network::registerTelemetry(sim::TelemetrySampler& sampler) {
  if (packets_) {
    sampler.addCounterRate("net.packet.delivered_per_s", packets_->c_delivered);
    sampler.addCounterRate("net.packet.wire_bytes_per_s", packets_->c_wire_bytes);
    for (LinkId l = 0; l < topo_.linkCount(); ++l) {
      sampler.addRate("net.packet.link_util." + topo_.link(l).name,
                      [this, l](std::int64_t t) { return linkBusyKernelSeconds(l, t); });
    }
  }
  if (flows_) flows_->registerTelemetry(sampler);
}

void Network::saveState(obs::StateWriter& w) const {
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
  if (packets_) {
    w.u64("net.packet.queues", packets_->link_queues.size());
    for (std::size_t q = 0; q < packets_->link_queues.size(); ++q) {
      const LinkQueue& lq = packets_->link_queues[q];
      if (lq.queue.empty() && !lq.busy && lq.busy_ns == 0) continue;  // cold queue
      w.u64("q", q);
      w.u64("depth", lq.queue.size());
      w.i64("bytes", lq.queued_bytes);
      w.boolean("busy", lq.busy);
      w.i64("busy_since", lq.busy_since);
      w.i64("busy_ns", lq.busy_ns);
    }
    for (std::uint64_t word : packets_->rng.fingerprint()) w.u64("rng", word);
    w.u64("flight.in_use", packets_->flight_slots.size() - packets_->flight_free.size());
  }
  if (flows_) flows_->saveState(w);
}

// ---------------------------------------------------------- packet half --

Network::PacketHalf& Network::packetHalf() {
  if (!packets_) throw UsageError("no packet path under --netmodel=flow");
  return *packets_;
}

void Network::attachHost(NodeId node, PacketHandler handler) {
  packetHalf().handlers.at(static_cast<size_t>(node)) = std::move(handler);
}

double Network::linkBusyKernelSeconds(LinkId link, sim::SimTime t) const {
  double ns = 0;
  for (std::size_t dir = 0; dir < 2; ++dir) {
    const LinkQueue& q = packets_->link_queues[static_cast<std::size_t>(link) * 2 + dir];
    ns += static_cast<double>(q.busy_ns);
    // Open transmit interval, closed against the sample time.
    if (q.busy && t > q.busy_since) ns += static_cast<double>(t - q.busy_since);
  }
  return ns * 1e-9;
}

std::uint32_t Network::parkInFlight(Packet&& pkt) {
  PacketHalf& ph = *packets_;
  if (ph.flight_free.empty()) {
    ph.flight_slots.push_back(std::move(pkt));
    return static_cast<std::uint32_t>(ph.flight_slots.size() - 1);
  }
  const std::uint32_t slot = ph.flight_free.back();
  ph.flight_free.pop_back();
  ph.flight_slots[slot] = std::move(pkt);
  return slot;
}

Packet Network::takeInFlight(std::uint32_t slot) {
  Packet pkt = std::move(packets_->flight_slots[slot]);
  packets_->flight_free.push_back(slot);
  return pkt;
}

void Network::send(Packet&& pkt) {
  if (pkt.src < 0 || pkt.src >= topo_.nodeCount() || pkt.dst < 0 || pkt.dst >= topo_.nodeCount()) {
    throw UsageError("packet endpoint out of range");
  }
  packetHalf().c_sent.inc();
  // Sender-side protocol stack cost. The packet parks in a flight slot so
  // the event captures 8 bytes, not a Packet.
  const std::uint32_t slot = parkInFlight(std::move(pkt));
  sim_.scheduleAfter(scaled(kHostStackDelay), [this, slot] {
    Packet p = takeInFlight(slot);
    forward(p.src, std::move(p));
  });
}

void Network::forward(NodeId at, Packet&& pkt) {
  if (at == pkt.dst) {
    deliverLocal(std::move(pkt));
    return;
  }
  LinkId lid = routing_.nextLink(at, pkt.dst);
  if (lid == kNoLink || !topo_.link(lid).up) {
    packets_->c_dropped_down.inc();
    sim_.spans().endWith(pkt.span, "dropped", "no_route");
    return;
  }
  enqueue(lid, at, std::move(pkt));
}

Network::LinkQueue& Network::queueFor(LinkId link, NodeId from) {
  const Link& l = topo_.link(link);
  const int dir = (from == l.a) ? 0 : 1;
  return packets_->link_queues.at(static_cast<size_t>(link) * 2 + static_cast<size_t>(dir));
}

void Network::enqueue(LinkId link, NodeId from, Packet&& pkt) {
  const Link& l = topo_.link(link);
  LinkQueue& q = queueFor(link, from);
  if (q.queued_bytes + pkt.wireBytes() > l.queue_bytes) {
    packets_->c_dropped_queue.inc();
    MG_LOG_TRACE("net") << "drop (queue full) on " << l.name;
    sim_.spans().endWith(pkt.span, "dropped", "queue");
    return;
  }
  q.queued_bytes += pkt.wireBytes();
  q.queue.push_back(std::move(pkt));
  if (!q.busy) startTransmit(link, from);
}

void Network::startTransmit(LinkId link, NodeId from) {
  LinkQueue& q = queueFor(link, from);
  if (q.queue.empty()) {
    if (q.busy) q.busy_ns += sim_.now() - q.busy_since;  // occupancy 1 -> 0
    q.busy = false;
    return;
  }
  if (!q.busy) q.busy_since = sim_.now();  // occupancy 0 -> 1
  q.busy = true;
  const Link& l = topo_.link(link);
  Packet& head = q.queue.front();
  const double tx_seconds = static_cast<double>(head.wireBytes()) * 8.0 / l.bandwidth_bps;
  const sim::SimTime tx = sim::fromSeconds(tx_seconds);
  packets_->c_wire_bytes.inc(head.wireBytes());
  // One hop = serialization + propagation + the far-end processing delay,
  // recorded as a child of the packet's transit span on the link's track.
  if (sim_.spans().enabled() && head.span != 0) {
    head.hop_span = sim_.spans().beginChildOf(head.span, "net.packet", "hop", l.name);
  }
  sim_.scheduleAfter(scaled(tx), [this, link, from] {
    LinkQueue& lq = queueFor(link, from);
    Packet pkt = std::move(lq.queue.front());
    lq.queue.pop_front();
    lq.queued_bytes -= pkt.wireBytes();
    const Link& lk = topo_.link(link);
    PacketHalf& ph = *packets_;
    // Link may have gone down while the packet was in flight on the wire.
    if (!lk.up) {
      ph.c_dropped_down.inc();
      ph.c_dropped_link_down.inc();
      sim_.spans().endWith(pkt.hop_span, "dropped", "link_down");
      sim_.spans().endWith(pkt.span, "dropped", "link_down");
    } else if (lk.loss_rate > 0 && ph.rng.uniform() < lk.loss_rate) {
      ph.c_dropped_loss.inc();
      sim_.spans().endWith(pkt.hop_span, "dropped", "loss");
      sim_.spans().endWith(pkt.span, "dropped", "loss");
    } else {
      const NodeId to = topo_.peer(link, from);
      const bool at_destination = (to == pkt.dst);
      const sim::SimTime hop_delay =
          lk.latency + (at_destination ? kHostStackDelay : kRouterForwardDelay);
      const std::uint32_t slot = parkInFlight(std::move(pkt));
      sim_.scheduleAfter(scaled(hop_delay), [this, to, slot] {
        Packet p = takeInFlight(slot);
        sim_.spans().end(p.hop_span);
        p.hop_span = 0;
        if (to == p.dst) {
          deliverLocal(std::move(p));
        } else {
          forward(to, std::move(p));
        }
      });
    }
    startTransmit(link, from);
  });
}

void Network::deliverLocal(Packet&& pkt) {
  PacketHalf& ph = *packets_;
  if (!topo_.node(pkt.dst).up) {
    // Crashed hosts receive nothing: the silent blackhole that makes peers'
    // SYN/RTO timers (rather than an oracle) detect the failure.
    ph.c_dropped_down.inc();
    ph.c_dropped_node_down.inc();
    sim_.spans().endWith(pkt.span, "dropped", "node_down");
    return;
  }
  // Final disposition of the transit span: the payload reached the
  // destination stack (whether or not a transport is attached).
  sim_.spans().end(pkt.span);
  PacketHandler& h = ph.handlers.at(static_cast<size_t>(pkt.dst));
  if (!h) {
    MG_LOG_TRACE("net") << "packet to unattached node " << topo_.node(pkt.dst).name;
    return;
  }
  ph.c_delivered.inc();
  ph.c_bytes_delivered.inc(static_cast<std::int64_t>(pkt.payload.size()));
  h(std::move(pkt));
}

void Network::dropQueued(LinkId link, obs::Counter& cause) {
  for (int dir = 0; dir < 2; ++dir) dropQueuedDir(link, dir, cause);
}

void Network::dropQueuedDir(LinkId link, int dir, obs::Counter& cause) {
  LinkQueue& q =
      packets_->link_queues.at(static_cast<size_t>(link) * 2 + static_cast<size_t>(dir));
  // The head packet may be mid-transmission; its completion event still
  // references queue.front(), so leave it (the completion path drops it
  // because the link is down). Everything behind it is dropped here.
  const size_t keep = q.busy ? 1 : 0;
  while (q.queue.size() > keep) {
    q.queued_bytes -= q.queue.back().wireBytes();
    sim_.spans().endWith(q.queue.back().span, "dropped", "purged");
    q.queue.pop_back();
    packets_->c_dropped_down.inc();
    cause.inc();
  }
}

}  // namespace mg::net
