// The simulated network (DESIGN.md §8).
//
// One class carries every model. It owns what all of them share — the
// topology, the fault-aware routing table, the time_scale rescaling, and the
// link/node fault surface — plus up to two halves, built from the mode:
//
//   * the packet half (packet and hybrid mode): drop-tail link queues, the
//     in-flight packet pool, the loss RNG and the per-node transport
//     handlers. Packets travel hop by hop and reach the destination host's
//     handler at the right simulated time (the paper's VINT/NSE role);
//   * the fluid half (flow and hybrid mode): a FlowEngine, max-min fair
//     flows with events only at flow state changes.
//
// Which half carries a connection is decided once, when it opens:
// escalate() answers "packet" when the packet half exists and either there
// is no engine or the hybrid DetailSelector matches. So packet and flow are
// the two ends of the hybrid selector, and a fault injected through
// setLinkUp() reaches whichever halves exist, packet half first.
//
// A `time_scale` multiplies every network duration when scheduling onto the
// kernel clock. The MicroGrid platform runs the network at 1/rate so that
// virtual-time behaviour is preserved at any emulation rate (paper Fig 15).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/flow_engine.h"
#include "net/packet.h"
#include "net/topology.h"
#include "sim/sampler.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace mg::net {

/// Which halves a network builds (mgrun --netmodel=...).
enum class NetModelKind { Packet, Flow, Hybrid };

/// Parse "packet" / "flow" / "hybrid"; throws ConfigError otherwise.
NetModelKind parseNetModelKind(const std::string& s);
const char* netModelKindName(NetModelKind k);

/// Per-packet host protocol-stack overhead (send and receive side each).
inline constexpr sim::SimTime kHostStackDelay = 15 * sim::kMicrosecond;

/// A link's mutable performance parameters, for fault injection
/// (link_degrade / restore). Changing them recomputes routing, since the
/// Dijkstra weights depend on latency and bandwidth.
struct LinkParams {
  double bandwidth_bps = 0;
  sim::SimTime latency = 0;
  double loss_rate = 0;
};

struct NetworkOptions {
  NetModelKind kind = NetModelKind::Packet;
  /// Kernel-clock nanoseconds per network nanosecond.
  double time_scale = 1.0;
  /// Seed for the packet half's loss process.
  std::uint64_t seed = 0xC0FFEE;
  /// Component-scoped flow recompute (the default). `false` re-runs
  /// progressive filling over *all* flows on every change — the slow
  /// full-recompute oracle the incremental engine is property-tested
  /// against; results are bit-identical either way.
  bool incremental = true;
  /// Hybrid mode's detail selector patterns (see DetailSelector).
  std::vector<std::string> detail;
};

/// Compiled --netmodel-detail patterns. Accepted forms:
///   host:GLOB   escalate connections whose src or dst node name matches GLOB
///   port:N      escalate connections to listening port N
///   port:LO-HI  escalate listening ports in [LO, HI]
///   GLOB        shorthand for host:GLOB
/// GLOB takes `*` (any run) and `?` (any one char), case-sensitive. A
/// connection escalates if any pattern matches. Node globs are precompiled
/// to a per-node bitset so the per-connect test is O(ports) with no string
/// work.
class DetailSelector {
 public:
  DetailSelector() = default;
  DetailSelector(const Topology& topo, const std::vector<std::string>& patterns);

  bool matches(NodeId src, NodeId dst, std::uint16_t dst_port) const;

 private:
  std::vector<char> node_detail_;                 // per-node flag
  std::vector<std::pair<int, int>> port_ranges_;  // inclusive
  bool any_ = false;
};

class Network {
 public:
  using PacketHandler = std::function<void(Packet&&)>;

  Network(sim::Simulator& sim, Topology topo, NetworkOptions opts = {});
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  sim::Simulator& simulator() { return sim_; }
  const Topology& topology() const { return topo_; }
  const RoutingTable& routing() const { return routing_; }

  // --- fault surface (src/fault drives these) ---
  //
  // Each mutation fires exactly once per actual state change (a same-state
  // call is a no-op), reaches the packet half and then the fluid half, then
  // recomputes routes. Packets already queued on a downed link are dropped
  // (`net.packet.drop_link_down`); packets queued *toward* a downed node are
  // dropped (`net.packet.drop_node_down`) while its own outbound packets
  // drain (the dying kernel's last-gasp RSTs must reach established peers).
  // Flows crossing a downed element abort; a params change re-shares only
  // the contention component containing the link. Up transitions touch
  // neither half: a restored element carries no packets or flows, and flow
  // routes are fixed at flow start.

  /// Administratively set a link up or down.
  void setLinkUp(LinkId link, bool up);

  /// Mark a node up or down (host crash / restart). A down node neither
  /// receives traffic nor forwards (routing recomputes around it).
  void setNodeUp(NodeId node, bool up);
  bool nodeUp(NodeId node) const { return topo_.node(node).up; }

  LinkParams linkParams(LinkId link) const;
  /// Zero bandwidth is a legal *degraded* state for flows (they stall until
  /// restore); with a packet half it is rejected, since per-segment
  /// serialization divides by bandwidth.
  void applyLinkParams(LinkId link, const LinkParams& params);

  /// Convert a network-time duration to kernel-clock time (multiplies by
  /// time_scale). Transports use this for their protocol timers so that RTO
  /// and friends stay correct in rescaled emulations.
  sim::SimTime scaleDuration(sim::SimTime t) const { return scaled(t); }
  double timeScale() const { return time_scale_; }

  // --- model-selection surface ---

  /// True when the packet half exists (packet and hybrid mode).
  bool carriesPackets() const { return packets_.has_value(); }
  /// The fluid engine (flow and hybrid mode); nullptr in packet mode.
  FlowEngine* flows() { return flows_ ? &*flows_ : nullptr; }

  /// Should a connection from src to dst's listening port `port` be
  /// modeled at packet-level detail? Platforms ask once, at connect time,
  /// and the answer holds for both directions of the connection.
  bool escalate(NodeId src, NodeId dst, std::uint16_t port) const {
    return packets_ && (!flows_ || selector_.matches(src, dst, port));
  }

  // --- packet half (throw UsageError without one) ---

  /// Install the transport dispatch for a host node. One handler per node;
  /// replacing is allowed (tests), unhandled packets are dropped.
  void attachHost(NodeId node, PacketHandler handler);

  /// Inject a packet at its source node. Takes the full path through link
  /// queues; delivery invokes the destination node's handler.
  void send(Packet&& pkt);

  // --- telemetry surface (DESIGN.md §10) ---

  /// Register each present half's probes: the packet half's delivered and
  /// wire-byte rates plus one net.packet.link_util.<name> series per link
  /// (summed duplex utilization: 1.0 = one direction saturated, 2.0 = both),
  /// then the fluid engine's series (net.flow.*).
  void registerTelemetry(sim::TelemetrySampler& sampler);

  // --- state-capture surface (DESIGN.md §11) ---

  /// Fold the observable state into a canonical digest: every link's up
  /// flag and live parameters and every node's up flag, then the packet
  /// half (per-direction queue occupancy and busy accounting, in-flight
  /// pool occupancy, loss RNG stream), then the fluid flows. Strictly
  /// read-only; call between events.
  void saveState(obs::StateWriter& w) const;

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

  /// Everything only packets need.
  struct PacketHalf {
    PacketHalf(obs::MetricsRegistry& m, const Topology& topo, std::uint64_t seed);

    // net.packet.* counter handles.
    obs::Counter& c_sent;          // injected by transports
    obs::Counter& c_delivered;     // handed to a destination transport
    obs::Counter& c_dropped_queue;
    obs::Counter& c_dropped_loss;
    obs::Counter& c_dropped_down;  // link down or no route
    // Fault-specific sub-causes of dropped_down (which stays the aggregate).
    obs::Counter& c_dropped_link_down;
    obs::Counter& c_dropped_node_down;
    obs::Counter& c_bytes_delivered;  // payload bytes
    obs::Counter& c_wire_bytes;       // includes headers/framing/retransmits
    // The loss process, seeded with NetworkOptions::seed.
    util::Rng rng;
    // Transport dispatch per node (attachHost); empty = unattached.
    std::vector<PacketHandler> handlers;
    // link_queues[link * 2 + direction]
    std::vector<LinkQueue> link_queues;
    // In-flight packet records: packets traversing a latency/stack-delay
    // leg park here so the completion event captures only a slot index
    // (which keeps it inside EventFn's inline buffer — no allocation per
    // hop). Slots are recycled through a free list; the pool's size is the
    // high-water mark of concurrently in-flight packets, and a recycled
    // slot's payload buffer is re-stolen by the next move-assign rather than
    // reallocated.
    std::vector<Packet> flight_slots;
    std::vector<std::uint32_t> flight_free;
  };

  void recomputeRoutes();
  sim::SimTime scaled(sim::SimTime t) const {
    if (unit_time_scale_) return t;
    return scaledSlow(t);
  }
  sim::SimTime scaledSlow(sim::SimTime t) const;

  PacketHalf& packetHalf();
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

  sim::Simulator& sim_;
  Topology topo_;
  RoutingTable routing_;
  obs::Counter& c_route_recomputes_;
  double time_scale_ = 1.0;
  // True when time_scale == 1.0 exactly: scaled() is then the identity and
  // skips the int -> double -> llround round-trip on every hop.
  bool unit_time_scale_ = false;
  std::optional<PacketHalf> packets_;
  std::optional<FlowEngine> flows_;
  DetailSelector selector_;  // hybrid only
};

}  // namespace mg::net
