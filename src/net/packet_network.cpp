#include "net/packet_network.h"


#include "util/log.h"

namespace mg::net {
namespace {

/// Per-packet processing delay at each intermediate router.
constexpr sim::SimTime kRouterForwardDelay = 10 * sim::kMicrosecond;

}  // namespace

PacketNetwork::PacketNetwork(sim::Simulator& sim, Topology topo, PacketNetworkOptions opts)
    : NetworkModel(sim, std::move(topo), opts.time_scale),
      c_sent_(sim.metrics().counter("net.packet.sent")),
      c_delivered_(sim.metrics().counter("net.packet.delivered")),
      c_dropped_queue_(sim.metrics().counter("net.packet.dropped_queue")),
      c_dropped_loss_(sim.metrics().counter("net.packet.dropped_loss")),
      c_dropped_down_(sim.metrics().counter("net.packet.dropped_down")),
      c_dropped_link_down_(sim.metrics().counter("net.packet.drop_link_down")),
      c_dropped_node_down_(sim.metrics().counter("net.packet.drop_node_down")),
      c_bytes_delivered_(sim.metrics().counter("net.packet.bytes_delivered")),
      c_wire_bytes_(sim.metrics().counter("net.packet.wire_bytes_sent")),
      rng_(opts.seed) {
  handlers_.resize(static_cast<size_t>(topo_.nodeCount()));
  link_queues_.resize(static_cast<size_t>(topo_.linkCount()) * 2);
}

void PacketNetwork::attachHost(NodeId node, PacketHandler handler) {
  handlers_.at(static_cast<size_t>(node)) = std::move(handler);
}

double PacketNetwork::linkBusyKernelSeconds(LinkId link, sim::SimTime t) const {
  double ns = 0;
  for (std::size_t dir = 0; dir < 2; ++dir) {
    const LinkQueue& q = link_queues_[static_cast<std::size_t>(link) * 2 + dir];
    ns += static_cast<double>(q.busy_ns);
    // Open transmit interval, closed against the sample time.
    if (q.busy && t > q.busy_since) ns += static_cast<double>(t - q.busy_since);
  }
  return ns * 1e-9;
}

void PacketNetwork::registerTelemetry(obs::TelemetrySampler& sampler) {
  sampler.addCounterRate("net.packet.delivered_per_s", c_delivered_);
  sampler.addCounterRate("net.packet.wire_bytes_per_s", c_wire_bytes_);
  for (LinkId l = 0; l < topo_.linkCount(); ++l) {
    sampler.addRate("net.packet.link_util." + topo_.link(l).name,
                    [this, l](std::int64_t t) { return linkBusyKernelSeconds(l, t); });
  }
}

std::uint32_t PacketNetwork::parkInFlight(Packet&& pkt) {
  if (flight_free_.empty()) {
    flight_slots_.push_back(std::move(pkt));
    return static_cast<std::uint32_t>(flight_slots_.size() - 1);
  }
  const std::uint32_t slot = flight_free_.back();
  flight_free_.pop_back();
  flight_slots_[slot] = std::move(pkt);
  return slot;
}

Packet PacketNetwork::takeInFlight(std::uint32_t slot) {
  Packet pkt = std::move(flight_slots_[slot]);
  flight_free_.push_back(slot);
  return pkt;
}

void PacketNetwork::send(Packet&& pkt) {
  if (pkt.src < 0 || pkt.src >= topo_.nodeCount() || pkt.dst < 0 || pkt.dst >= topo_.nodeCount()) {
    throw UsageError("packet endpoint out of range");
  }
  c_sent_.inc();
  // Sender-side protocol stack cost. The packet parks in a flight slot so
  // the event captures 8 bytes, not a Packet.
  const std::uint32_t slot = parkInFlight(std::move(pkt));
  sim_.scheduleAfter(scaled(kHostStackDelay), [this, slot] {
    Packet p = takeInFlight(slot);
    forward(p.src, std::move(p));
  });
}

void PacketNetwork::forward(NodeId at, Packet&& pkt) {
  if (at == pkt.dst) {
    deliverLocal(std::move(pkt));
    return;
  }
  LinkId lid = routing_.nextLink(at, pkt.dst);
  if (lid == kNoLink || !topo_.link(lid).up) {
    c_dropped_down_.inc();
    sim_.spans().endWith(pkt.span, "dropped", "no_route");
    return;
  }
  enqueue(lid, at, std::move(pkt));
}

PacketNetwork::LinkQueue& PacketNetwork::queueFor(LinkId link, NodeId from) {
  const Link& l = topo_.link(link);
  const int dir = (from == l.a) ? 0 : 1;
  return link_queues_.at(static_cast<size_t>(link) * 2 + static_cast<size_t>(dir));
}

void PacketNetwork::enqueue(LinkId link, NodeId from, Packet&& pkt) {
  const Link& l = topo_.link(link);
  LinkQueue& q = queueFor(link, from);
  if (q.queued_bytes + pkt.wireBytes() > l.queue_bytes) {
    c_dropped_queue_.inc();
    MG_LOG_TRACE("net") << "drop (queue full) on " << l.name;
    sim_.spans().endWith(pkt.span, "dropped", "queue");
    return;
  }
  q.queued_bytes += pkt.wireBytes();
  q.queue.push_back(std::move(pkt));
  if (!q.busy) startTransmit(link, from);
}

void PacketNetwork::startTransmit(LinkId link, NodeId from) {
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
  c_wire_bytes_.inc(head.wireBytes());
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
    // Link may have gone down while the packet was in flight on the wire.
    if (!lk.up) {
      c_dropped_down_.inc();
      c_dropped_link_down_.inc();
      sim_.spans().endWith(pkt.hop_span, "dropped", "link_down");
      sim_.spans().endWith(pkt.span, "dropped", "link_down");
    } else if (lk.loss_rate > 0 && rng_.uniform() < lk.loss_rate) {
      c_dropped_loss_.inc();
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

void PacketNetwork::deliverLocal(Packet&& pkt) {
  if (!topo_.node(pkt.dst).up) {
    // Crashed hosts receive nothing: the silent blackhole that makes peers'
    // SYN/RTO timers (rather than an oracle) detect the failure.
    c_dropped_down_.inc();
    c_dropped_node_down_.inc();
    sim_.spans().endWith(pkt.span, "dropped", "node_down");
    return;
  }
  // Final disposition of the transit span: the payload reached the
  // destination stack (whether or not a transport is attached).
  sim_.spans().end(pkt.span);
  PacketHandler& h = handlers_.at(static_cast<size_t>(pkt.dst));
  if (!h) {
    MG_LOG_TRACE("net") << "packet to unattached node " << topo_.node(pkt.dst).name;
    return;
  }
  c_delivered_.inc();
  c_bytes_delivered_.inc(static_cast<std::int64_t>(pkt.payload.size()));
  h(std::move(pkt));
}

void PacketNetwork::dropQueued(LinkId link, obs::Counter& cause) {
  for (int dir = 0; dir < 2; ++dir) dropQueuedDir(link, dir, cause);
}

void PacketNetwork::dropQueuedDir(LinkId link, int dir, obs::Counter& cause) {
  LinkQueue& q = link_queues_.at(static_cast<size_t>(link) * 2 + static_cast<size_t>(dir));
  // The head packet may be mid-transmission; its completion event still
  // references queue.front(), so leave it (the completion path drops it
  // because the link is down). Everything behind it is dropped here.
  const size_t keep = q.busy ? 1 : 0;
  while (q.queue.size() > keep) {
    q.queued_bytes -= q.queue.back().wireBytes();
    sim_.spans().endWith(q.queue.back().span, "dropped", "purged");
    q.queue.pop_back();
    c_dropped_down_.inc();
    cause.inc();
  }
}

void PacketNetwork::onLinkDown(LinkId link) { dropQueued(link, c_dropped_link_down_); }

void PacketNetwork::onNodeDown(NodeId node) {
  // Packets queued *toward* the dead node are lost (they could only
  // blackhole at delivery). The outbound direction is deliberately left to
  // drain: those packets were already handed to the NIC before the crash
  // instant — they carry the dying kernel's last-gasp RSTs, which is how
  // established peers learn of the crash promptly. The links themselves
  // stay up: a crashed host's cable is still plugged in.
  for (LinkId lid : topo_.linksAt(node)) {
    const Link& l = topo_.link(lid);
    const NodeId peer = (l.a == node) ? l.b : l.a;
    const int dir_in = (peer == l.a) ? 0 : 1;  // peer -> node
    dropQueuedDir(lid, dir_in, c_dropped_node_down_);
  }
}

void PacketNetwork::saveState(obs::StateWriter& w) const {
  NetworkModel::saveState(w);
  w.u64("net.packet.queues", link_queues_.size());
  for (std::size_t q = 0; q < link_queues_.size(); ++q) {
    const LinkQueue& lq = link_queues_[q];
    if (lq.queue.empty() && !lq.busy && lq.busy_ns == 0) continue;  // cold queue
    w.u64("q", q);
    w.u64("depth", lq.queue.size());
    w.i64("bytes", lq.queued_bytes);
    w.boolean("busy", lq.busy);
    w.i64("busy_since", lq.busy_since);
    w.i64("busy_ns", lq.busy_ns);
  }
  for (std::uint64_t word : rng_.fingerprint()) w.u64("rng", word);
  w.u64("flight.in_use", flight_slots_.size() - flight_free_.size());
}

void PacketNetwork::validateLinkParams(LinkId link, const net::LinkParams& params) const {
  (void)link;
  // Per-segment serialization time divides by bandwidth, so the packet
  // pipeline (and the hybrid model, which inherits this check for its
  // escalated connections) cannot express a fully-starved link; only the pure
  // fluid model accepts bandwidth 0 (flows stall until restore).
  if (params.bandwidth_bps <= 0) {
    throw UsageError("packet model needs positive link bandwidth");
  }
}

}  // namespace mg::net
