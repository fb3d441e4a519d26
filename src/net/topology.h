// Network topology: a graph of nodes (hosts and routers) connected by
// full-duplex links with bandwidth, propagation latency, queue capacity and
// an optional random loss rate. Static shortest-path routing tables are
// computed with Dijkstra over a latency+serialization weight.
//
// This is the structural half of the paper's NSE substitute: "The VINT/NSE
// simulation system allows definition of an arbitrary network configuration."
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "sim/time.h"
#include "util/config.h"
#include "util/name_index.h"

namespace mg::net {

using NodeId = std::int32_t;
using LinkId = std::int32_t;

constexpr NodeId kNoNode = -1;
constexpr LinkId kNoLink = -1;
static_assert(kNoNode == util::NameIndex::kNone && kNoLink == util::NameIndex::kNone);

enum class NodeKind { Host, Router };

struct Node {
  std::string name;
  NodeKind kind = NodeKind::Host;
  bool up = true;  // a crashed host / failed router neither sends nor receives
};

/// A full-duplex link: both directions have independent queues in the
/// network's packet half but share these parameters.
struct Link {
  std::string name;
  NodeId a = kNoNode;
  NodeId b = kNoNode;
  double bandwidth_bps = 0;
  sim::SimTime latency = 0;
  std::int64_t queue_bytes = 256 * 1024;  // drop-tail buffer per direction
  double loss_rate = 0.0;                 // random per-packet loss (failure injection)
  bool up = true;
};

class Topology {
 public:
  /// Throws ConfigError on a duplicate node name.
  NodeId addHost(std::string name);
  NodeId addRouter(std::string name);
  LinkId addLink(std::string name, NodeId a, NodeId b, double bandwidth_bps,
                 sim::SimTime latency, std::int64_t queue_bytes = 256 * 1024,
                 double loss_rate = 0.0);

  const Node& node(NodeId id) const { return nodes_.at(static_cast<size_t>(id)); }
  const Link& link(LinkId id) const { return links_.at(static_cast<size_t>(id)); }
  Link& mutableLink(LinkId id) { return links_.at(static_cast<size_t>(id)); }
  Node& mutableNode(NodeId id) { return nodes_.at(static_cast<size_t>(id)); }

  int nodeCount() const { return static_cast<int>(nodes_.size()); }
  int linkCount() const { return static_cast<int>(links_.size()); }

  /// Node id by name; kNoNode if absent. O(1) via the name index (generated
  /// 100k-host grids call this once per addHost/addLink — a linear scan
  /// here made topology construction quadratic).
  NodeId findNode(std::string_view name) const;
  /// Link id by name; kNoLink if absent (first of that name when
  /// duplicates exist, matching the historical scan order).
  LinkId findLink(std::string_view name) const;

  /// Links incident to a node.
  const std::vector<LinkId>& linksAt(NodeId id) const { return adjacency_.at(static_cast<size_t>(id)); }

  /// The other endpoint of a link.
  NodeId peer(LinkId id, NodeId from) const;

  /// Build a topology from config sections:
  ///   [node r0]      kind = router
  ///   [node h0]      kind = host        (kind defaults to host)
  ///   [link l0]      a = h0
  ///                  b = r0
  ///                  bandwidth = 100Mbps
  ///                  latency = 0.1ms
  ///                  queue = 256KB       (optional)
  ///                  loss = 0.0          (optional)
  static Topology fromConfig(const util::Config& cfg);

 private:
  NodeId addNode(std::string name, NodeKind kind);
  // The name indexes' views of the names they index.
  auto nodeName() const {
    return [this](NodeId n) -> const std::string& { return nodes_[static_cast<size_t>(n)].name; };
  }
  auto linkName() const {
    return [this](LinkId k) -> const std::string& { return links_[static_cast<size_t>(k)].name; };
  }

  std::vector<Node> nodes_;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> adjacency_;
  // Name -> position in nodes_ / links_; a miss is NameIndex::kNone, which
  // equals kNoNode and kNoLink.
  util::NameIndex node_index_;
  util::NameIndex link_index_;
};

/// All-pairs next-hop routing, recomputable when links change state.
///
/// A *stub* is a node whose single link (counting down links too) leads to
/// a node with more than one link, and whose link weight w is finite with
/// 2w > 1e-15. A stub never carries transit traffic: its only next hop is
/// its uplink, and the route to it is the route to its attachment router
/// plus that uplink. Every other node is *core* (routers, multi-homed
/// hosts, both ends of a two-node island). Dijkstra runs over core nodes
/// only, so on a host-heavy grid a route costs routers, not hosts; stubs are
/// answered from their attachment router's entry.
///
/// Routes are materialized lazily, one destination *column* (a next hop per
/// core node) at a time, on the first lookup toward that destination: a
/// 100k-host grid whose traffic touches a handful of destinations pays for
/// a handful of core-only Dijkstra runs. recompute() snapshots structure,
/// link weights and up/down state and drops every column, so it must follow
/// any change to the topology.
class RoutingTable {
 public:
  /// Routes are computed over all `up` links, skipping down nodes (a crashed
  /// host / failed router does not forward — paths never transit it). Weight
  /// of a link is its latency plus the serialization time of one MTU-sized
  /// packet, so routing prefers fast, short links; ties break toward lower
  /// node ids (determinism).
  explicit RoutingTable(const Topology& topo);

  /// Re-snapshot the topology after link/node state changes.
  void recompute(const Topology& topo);

  /// The link to take from `from` toward `dst`; kNoLink if unreachable.
  LinkId nextLink(NodeId from, NodeId dst) const;

  /// Calls fn(link) for each link on the route src -> dst, in order, without
  /// materializing the path. Returns false if dst is unreachable (fn may
  /// have seen a prefix of the walk); true, with no calls, when src == dst.
  template <class Fn>
  bool forEachHop(NodeId src, NodeId dst, Fn&& fn) const;

  /// Full path (sequence of links) from src to dst; empty if unreachable or
  /// src == dst.
  std::vector<LinkId> path(NodeId src, NodeId dst) const;

  /// End-to-end propagation latency along path(src, dst); -1 if unreachable.
  sim::SimTime pathLatency(const Topology& topo, NodeId src, NodeId dst) const;

  /// Minimum bandwidth along path(src, dst); 0 if unreachable.
  double bottleneckBandwidth(const Topology& topo, NodeId src, NodeId dst) const;

  /// Destination columns materialized since the last recompute (scale
  /// diagnostics: how many Dijkstra runs the traffic pattern actually paid
  /// for).
  int columnsBuilt() const;

 private:
  // next[c] = link to take from core node c toward the column's destination.
  struct Column {
    std::vector<LinkId> next;
  };
  // A core-core link seen from one end, with its routing weight.
  struct Arc {
    std::int32_t to;  // core index of the far end
    LinkId link;
    double w;
  };
  struct Stub {
    LinkId uplink;        // kNoLink while the uplink is down
    std::int32_t attach;  // core index of the attachment router
    double w;             // uplink weight
  };

  const Column& columnFor(NodeId dst) const;
  void checkRange(NodeId from, NodeId dst) const;
  [[noreturn]] static void throwLoop();

  // First hop from `from` (!= dst) on the column toward dst.
  LinkId hop(const Column& col, NodeId from, NodeId dst) const {
    const std::int32_t s = slot_[static_cast<size_t>(from)];
    if (s >= 0) return col.next[static_cast<size_t>(s)];
    // A stub leaves by its uplink when that is up and its router either is
    // the destination or (being up) forwards toward it.
    const Stub& st = stubs_[static_cast<size_t>(-1 - s)];
    if (st.uplink == kNoLink) return kNoLink;
    const auto r = static_cast<size_t>(st.attach);
    if (core_nodes_[r] == dst || (core_up_[r] && col.next[r] != kNoLink)) return st.uplink;
    return kNoLink;
  }

  int n_ = 0;
  const Topology* topo_ = nullptr;
  // slot_[node] = its core index, or -1 - (its index in stubs_).
  std::vector<std::int32_t> slot_;
  std::vector<Stub> stubs_;
  // Core index -> node id (ascending, so core-index order is node-id order)
  // and whether that node is up.
  std::vector<NodeId> core_nodes_;
  std::vector<char> core_up_;
  // Up core-core arcs of core node c, in linksAt() order:
  // arcs_[arc_begin_[c] .. arc_begin_[c + 1]).
  std::vector<std::int32_t> arc_begin_;
  std::vector<Arc> arcs_;
  // cols_[dst] is null until first use.
  mutable std::vector<std::unique_ptr<Column>> cols_;
  mutable int columns_built_ = 0;
};

template <class Fn>
bool RoutingTable::forEachHop(NodeId src, NodeId dst, Fn&& fn) const {
  if (src == dst) return true;
  checkRange(src, dst);
  const Column& col = columnFor(dst);
  NodeId at = src;
  for (int hops = 0; at != dst; ++hops) {
    if (hops == n_) throwLoop();  // cannot happen with Dijkstra next-hops
    const LinkId lid = hop(col, at, dst);
    if (lid == kNoLink) return false;
    fn(lid);
    at = topo_->peer(lid, at);
  }
  return true;
}

}  // namespace mg::net
