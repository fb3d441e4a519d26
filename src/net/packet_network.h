// The online packet-level network simulator (the paper's VINT/NSE role):
// packets travel hop-by-hop over drop-tail queued links and are delivered to
// the destination host's transport dispatch at the right simulated time.
//
// A `time_scale` multiplies every network duration when scheduling onto the
// kernel clock. The MicroGrid platform runs the network at 1/rate so that
// virtual-time behaviour is preserved at any emulation rate (paper Fig 15).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "net/network_model.h"
#include "net/packet.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace mg::net {

/// Per-packet host protocol-stack overhead (send and receive side each).
inline constexpr sim::SimTime kHostStackDelay = 15 * sim::kMicrosecond;

struct PacketNetworkOptions {
  /// Kernel-clock nanoseconds per network nanosecond.
  double time_scale = 1.0;
  /// Seed for the loss process.
  std::uint64_t seed = 0xC0FFEE;
};

class PacketNetwork : public NetworkModel {
 public:
  using PacketHandler = std::function<void(Packet&&)>;

  PacketNetwork(sim::Simulator& sim, Topology topo, PacketNetworkOptions opts = {});

  NetModelKind kind() const override { return NetModelKind::Packet; }

  /// Install the transport dispatch for a host node. One handler per node;
  /// replacing is allowed (tests), unhandled packets are dropped.
  void attachHost(NodeId node, PacketHandler handler);

  /// Inject a packet at its source node. Takes the full path through link
  /// queues; delivery invokes the destination node's handler.
  void send(Packet&& pkt);

  /// Time-resolved probes (DESIGN.md §10): delivered/wire-byte rates plus
  /// one net.packet.link_util.<name> series per link — the summed duplex
  /// utilization (1.0 = one direction saturated, 2.0 = both), from the
  /// per-direction busy-time accrual.
  void registerTelemetry(obs::TelemetrySampler& sampler) override;

  /// Base link/node state plus the packet machinery: per-direction queue
  /// occupancy and busy accounting, in-flight pool occupancy, and the
  /// loss-process RNG stream.
  void saveState(obs::StateWriter& w) const override;

 protected:
  // Fault hooks (NetworkModel runs them between the state flip and the
  // routing recompute). Packets already queued on a downed
  // link are dropped and counted under `net.packet.drop_link_down`; packets
  // queued *toward* a downed node are dropped under
  // `net.packet.drop_node_down` while its own outbound packets drain (the
  // dying kernel's last-gasp RSTs must reach established peers).
  void onLinkDown(LinkId link) override;
  void onNodeDown(NodeId node) override;
  void validateLinkParams(LinkId link, const net::LinkParams& params) const override;

 private:
  // Per-direction link queue state. Direction 0 = a->b, 1 = b->a.
  // Busy-time accrues at occupancy transitions (transmit starts on an idle
  // direction / queue drains empty), per direction.
  struct LinkQueue {
    std::deque<Packet> queue;
    std::int64_t queued_bytes = 0;
    bool busy = false;
    sim::SimTime busy_since = 0;  // kernel time of the idle->busy edge
    sim::SimTime busy_ns = 0;     // closed busy spans, kernel ns
  };

  LinkQueue& queueFor(LinkId link, NodeId from);
  /// Cumulative kernel-seconds both directions spent transmitting, open
  /// intervals closed against sample time `t` (clamped non-negative).
  double linkBusyKernelSeconds(LinkId link, sim::SimTime t) const;
  void dropQueued(LinkId link, obs::Counter& cause);
  void dropQueuedDir(LinkId link, int dir, obs::Counter& cause);
  void forward(NodeId at, Packet&& pkt);
  void enqueue(LinkId link, NodeId from, Packet&& pkt);
  void startTransmit(LinkId link, NodeId from);
  void deliverLocal(Packet&& pkt);
  std::uint32_t parkInFlight(Packet&& pkt);
  Packet takeInFlight(std::uint32_t slot);

  // net.packet.* counter handles, resolved once against sim_.metrics().
  obs::Counter& c_sent_;          // injected by transports
  obs::Counter& c_delivered_;     // handed to a destination transport
  obs::Counter& c_dropped_queue_;
  obs::Counter& c_dropped_loss_;
  obs::Counter& c_dropped_down_;  // link down or no route
  // Fault-specific sub-causes of dropped_down (which stays the aggregate).
  obs::Counter& c_dropped_link_down_;
  obs::Counter& c_dropped_node_down_;
  obs::Counter& c_bytes_delivered_;  // payload bytes
  obs::Counter& c_wire_bytes_;       // includes headers/framing/retransmits
  // The loss process, seeded with opts.seed.
  util::Rng rng_;
  // Transport dispatch per node (attachHost); empty = unattached.
  std::vector<PacketHandler> handlers_;
  // linkqueues_[link * 2 + direction]
  std::vector<LinkQueue> link_queues_;
  // In-flight packet records: packets traversing a latency/stack-delay leg
  // park here so the completion event captures only a slot index (which
  // keeps it inside EventFn's inline buffer — no allocation per hop). Slots
  // are recycled through a free list; the pool's size is the high-water mark
  // of concurrently in-flight packets, and a recycled slot's payload buffer
  // is re-stolen by the next move-assign rather than reallocated.
  std::vector<Packet> flight_slots_;
  std::vector<std::uint32_t> flight_free_;
};

}  // namespace mg::net
