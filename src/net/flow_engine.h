// Analytic flow-level network model with max-min fair bandwidth sharing.
//
// Every transfer is a *fluid flow*: it streams across all links of its
// (fixed-at-start) route simultaneously, and concurrent flows sharing a
// directed link split its bandwidth max-min fairly (progressive filling,
// the classic water-filling allocation SimGrid's surf and MONARC-style grid
// simulators use). Kernel events exist only at flow *state changes* — start,
// drain, completion, fault — never per packet per hop, which is what lets
// the fluid model scale orders of magnitude past the packet simulator
// (DESIGN.md §8, the paper's "does not scale up to large simulations"
// bottleneck). Flows carry socket messages (core::FlowSocket); no packet
// ever enters the engine.
//
// Recomputation is *exact-incremental* (DESIGN.md §8 "Incremental
// sharing"): a link→flows reverse index identifies the connected component
// of the bipartite flow–link contention graph containing a changed flow or
// link, and only that component is re-shared. Max-min shares are
// component-local — progressive filling never moves bandwidth between
// disconnected components — so the scoped recompute produces bit-identical
// rates to a full pass (the `incremental = false` oracle mode, kept for the
// property test). Per-flow `last_integrated` stamps make byte accounting
// lazy: a flow's remaining_bits advance only when its own rate changes, so
// untouched components cost nothing per recompute.
//
// Fault-aware like the packet model: a link or node going down aborts the
// flows crossing it (their owners observe TCP-dying-gasp-style resets) and
// re-shares the survivors; link degrades re-share in place. A link degraded
// to zero bandwidth *stalls* the flows whose bottleneck it is (no drain
// event, rate 0) until capacity returns. Routing comes from the shared
// fault-aware RoutingTable; flows do not re-route mid-flight.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/topology.h"
#include "obs/state_capture.h"
#include "sim/sampler.h"
#include "sim/simulator.h"
#include "util/stats.h"

namespace mg::net {

/// Fixed per-message software/protocol overhead (both endpoints total).
inline constexpr sim::SimTime kPerMessageOverhead = 60 * sim::kMicrosecond;
/// Wire bytes per payload byte (headers + framing); 1538/1460 for
/// TCP/IPv4 over Ethernet at full-MSS segments.
inline constexpr double kByteOverhead = 1538.0 / 1460.0;
static_assert(kByteOverhead >= 1.0, "wire size cannot be below payload size");

/// Identifies an active flow; kNoFlow for flows that never entered the
/// shared-link stage (same-node or zero-byte transfers).
using FlowId = std::int64_t;
constexpr FlowId kNoFlow = 0;

class Network;

/// The max-min fair fluid engine: the fluid half of a Network (flow and
/// hybrid mode), which platforms reach through Network::flows() to run
/// socket-level transfers as single events.
class FlowEngine {
 public:
  using CompleteFn = std::function<void()>;
  using AbortFn = std::function<void(const std::string& reason)>;
  /// Fires when the last bit leaves the source (link capacity released),
  /// before the latency + overhead delivery tail. Lets pipelined senders
  /// chain their next chunk at the drain boundary — exactly when the wire
  /// frees up — instead of waiting a full one-way delivery.
  using DrainFn = std::function<void()>;

  /// `incremental` selects the component-scoped recompute; `false` is the
  /// full-recompute oracle (NetworkOptions::incremental).
  FlowEngine(Network& net, bool incremental);
  FlowEngine(const FlowEngine&) = delete;
  FlowEngine& operator=(const FlowEngine&) = delete;

  /// Start a flow of `payload_bytes` (wire size = payload * kByteOverhead).
  /// on_complete fires in event context when the last bit has drained plus
  /// path latency plus per-message overhead; on_abort fires instead if a
  /// link or node on the flow's route goes down mid-transfer. Throws
  /// ConfigError if the nodes are not connected.
  FlowId start(NodeId src, NodeId dst, std::int64_t payload_bytes, CompleteFn on_complete,
               AbortFn on_abort = {}, DrainFn on_drain = {});

  /// Low-level variant with explicit wire bits (fairness tests and the
  /// kernel benchmarks size flows directly).
  FlowId startBits(NodeId src, NodeId dst, double wire_bits, std::int64_t payload_bytes,
                   CompleteFn on_complete, AbortFn on_abort, DrainFn on_drain = {});

  /// Modeled duration of an uncontended transfer (no flow started):
  /// kPerMessageOverhead + path latency + wire_bits / bottleneck. Throws
  /// ConfigError when the route exists but has been degraded to zero
  /// capacity (an uncontended transfer would never finish).
  sim::SimTime estimate(NodeId src, NodeId dst, std::int64_t payload_bytes) const;

  /// Fault hooks (the owning Network calls these after the topology flip).
  void abortFlowsOnLink(LinkId link, const std::string& reason);
  void abortFlowsAtNode(NodeId node, const std::string& reason);
  /// Link performance parameters changed (degrade / restore): re-share the
  /// contention component touching this link. Stalled flows crossing it
  /// resume here when capacity returns. Link/node *up* transitions need no
  /// call: a freshly restored element carries no flows (all were aborted on
  /// the way down) and existing routes never change mid-flight.
  void onLinkChanged(LinkId link);

  /// Time-resolved probes (DESIGN.md §10): net.flow.active (level),
  /// net.flow.completed_per_s / bytes_per_s (rates), and one
  /// net.flow.link_util.<name> utilization rate per topology link (fraction
  /// of kernel time the link carried >= 1 flow, from the busy-time accrual).
  void registerTelemetry(sim::TelemetrySampler& sampler);

  int activeFlows() const { return static_cast<int>(flows_.size()); }
  /// A flow's current max-min rate in bits/s; 0 when the id is not active
  /// (fairness oracles in tests).
  double currentRateBps(FlowId id) const;
  /// True when the flow is parked at rate 0 (every path through its
  /// bottleneck link degraded to zero capacity).
  bool isStalled(FlowId id) const;
  /// Fraction of network time a link has carried at least one flow.
  double linkUtilization(LinkId link) const;
  /// Exhaustive O(F·L) audit of the link→flow reverse index and busy
  /// accounting invariants; used by debug asserts after aborts and by
  /// consistency tests.
  bool indexConsistent() const;

  /// Fold every active flow's dynamic state (remaining bits, rate, stall
  /// flag, integration stamp) into `w` in ascending FlowId order
  /// (DESIGN.md §11). Read-only.
  void saveState(obs::StateWriter& w) const;

 private:
  struct Flow {
    NodeId src = kNoNode;
    NodeId dst = kNoNode;
    std::vector<std::uint32_t> dlinks;  // directed links: link*2 + dir
    std::vector<NodeId> nodes;          // path nodes incl. endpoints
    sim::SimTime latency = 0;           // path latency at start (network time)
    double remaining_bits = 0;
    double rate_bps = 0;
    sim::SimTime last_integrated = 0;  // kernel time bits were last accrued
    sim::EventId drain_event = 0;
    bool stalled = false;  // parked at rate 0, no drain event
    CompleteFn on_complete;
    AbortFn on_abort;
    DrainFn on_drain;
    obs::SpanId span = 0;  // 0 when spans are off
    // Scratch for the recompute pass.
    double new_rate = 0;
    bool fixed = false;
    std::int64_t mark = 0;  // component-BFS visit epoch
  };

  /// Advance one flow's remaining_bits to `now` at its current (constant
  /// since the last recompute that touched it) rate.
  void integrateFlow(Flow& f, sim::SimTime now);
  /// Insert / remove a flow in the link→flows reverse index, maintaining
  /// the per-link active counts and busy-time accrual transitions.
  void indexFlow(FlowId id, Flow& f, sim::SimTime now);
  void unindexFlow(FlowId id, const Flow& f, sim::SimTime now);
  /// Start a fresh component collection; seedDlink() plants BFS roots.
  void beginComponent();
  void seedDlink(std::uint32_t d);
  /// Close the component under flow↔link adjacency (or take every active
  /// flow when incremental mode is off), run progressive filling over it,
  /// and reschedule the drains whose rates moved. Increments
  /// net.flow.share_recomputes and records the visit scope.
  void recomputeComponent();
  /// Progressive filling over comp_/comp_dlinks_ via the min-share heap;
  /// fills each flow's new_rate.
  void shareComponent();
  /// Apply new_rate to comp flows in ascending FlowId order: integrate,
  /// park zero-rate flows as stalled, reschedule drain events.
  void rescheduleComponent();
  void finishDrain(FlowId id);
  void abortMatching(const std::function<bool(const Flow&)>& pred, const std::string& reason);
  void publishActiveGauges();
  void publishLinkGauges(std::size_t lid, sim::SimTime now);
  double linkBusySeconds(std::size_t lid, sim::SimTime now) const;
  double nowNetSeconds() const;

  Network& model_;
  sim::Simulator& sim_;
  bool incremental_;

  std::map<FlowId, Flow> flows_;  // ordered: deterministic iteration
  FlowId next_id_ = 1;

  // Link→flows reverse index, per directed link (link*2 + dir). Each entry
  // carries the Flow* (std::map nodes are pointer-stable until erase) so the
  // hot recompute paths never pay a map lookup. Insertion order within a
  // dlink is load order; recompute determinism never depends on it
  // (component flows are sorted by id before use).
  struct IndexEntry {
    FlowId id;
    Flow* flow;
  };
  std::vector<std::vector<IndexEntry>> dlink_flows_;

  // Component-collection scratch (sized links*2; epoch-marked so clearing
  // is O(component), not O(links)).
  std::vector<std::int64_t> dlink_mark_;
  std::int64_t comp_epoch_ = 0;
  std::vector<IndexEntry> comp_;  // component flows, ascending id
  std::vector<std::uint32_t> comp_dlinks_;
  std::vector<std::uint32_t> abort_seeds_;

  // Progressive-filling scratch, sized links*2: residual capacity and
  // unfixed-flow counts (all zero outside shareComponent), the (share,
  // dlink) min-heap, and per-round dirty-link dedup marks.
  std::vector<double> cap_;
  std::vector<int> cnt_;
  std::vector<std::pair<double, std::uint32_t>> heap_;
  std::vector<std::uint32_t> dirty_;
  std::vector<std::int64_t> round_mark_;
  std::int64_t round_epoch_ = 0;

  // Per-link busy accounting: accrual happens at occupancy *transitions*
  // (first flow arrives / last flow leaves), not per recompute. A link is
  // busy while >= 1 flow crosses it in either direction — stalled flows
  // hold their route, so they count. Gauges materialize lazily, covering
  // only links that actually saw fluid traffic.
  std::vector<int> link_active_;            // flows currently crossing (undirected)
  std::vector<sim::SimTime> link_busy_since_;  // kernel time of the 0→1 edge
  std::vector<double> link_busy_s_;         // closed-span network seconds
  std::vector<obs::Gauge*> g_link_busy_;
  std::vector<obs::Gauge*> g_link_util_;

  // net.flow.* instrument handles, resolved once against sim_.metrics().
  obs::Counter& c_started_;
  obs::Counter& c_completed_;
  obs::Counter& c_aborted_;       // killed by link/node faults
  obs::Counter& c_bytes_;         // offered payload (at start)
  obs::Counter& c_recomputes_;    // max-min recompute passes
  obs::Counter& c_visited_;       // flows visited across all passes
  obs::Counter& c_stalled_;       // transitions into the zero-rate park
  obs::Gauge& g_active_;
  obs::Gauge& g_peak_;
  util::Histogram& h_scope_;
  std::int64_t peak_active_ = 0;
};

}  // namespace mg::net
