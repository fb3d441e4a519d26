#include "net/topology.h"

#include <algorithm>
#include <queue>

#include "util/error.h"
#include "util/strings.h"

namespace mg::net {

NodeId Topology::addHost(std::string name) {
  if (findNode(name) != kNoNode) throw ConfigError("duplicate node '" + name + "'");
  nodes_.push_back(Node{std::move(name), NodeKind::Host});
  adjacency_.emplace_back();
  const auto id = static_cast<NodeId>(nodes_.size() - 1);
  node_index_.emplace(nodes_.back().name, id);
  return id;
}

NodeId Topology::addRouter(std::string name) {
  if (findNode(name) != kNoNode) throw ConfigError("duplicate node '" + name + "'");
  nodes_.push_back(Node{std::move(name), NodeKind::Router});
  adjacency_.emplace_back();
  const auto id = static_cast<NodeId>(nodes_.size() - 1);
  node_index_.emplace(nodes_.back().name, id);
  return id;
}

LinkId Topology::addLink(std::string name, NodeId a, NodeId b, double bandwidth_bps,
                         sim::SimTime latency, std::int64_t queue_bytes, double loss_rate) {
  if (a < 0 || a >= nodeCount() || b < 0 || b >= nodeCount()) {
    throw ConfigError("link '" + name + "' references unknown node");
  }
  if (a == b) throw ConfigError("link '" + name + "' is a self-loop");
  if (bandwidth_bps <= 0) throw ConfigError("link '" + name + "' needs positive bandwidth");
  if (latency < 0) throw ConfigError("link '" + name + "' has negative latency");
  if (loss_rate < 0 || loss_rate >= 1.0) throw ConfigError("link '" + name + "' loss rate out of [0,1)");
  Link l;
  l.name = std::move(name);
  l.a = a;
  l.b = b;
  l.bandwidth_bps = bandwidth_bps;
  l.latency = latency;
  l.queue_bytes = queue_bytes;
  l.loss_rate = loss_rate;
  links_.push_back(std::move(l));
  LinkId id = static_cast<LinkId>(links_.size() - 1);
  adjacency_[static_cast<size_t>(a)].push_back(id);
  adjacency_[static_cast<size_t>(b)].push_back(id);
  // emplace keeps the first id on a duplicate name (the old scan order).
  link_index_.emplace(links_.back().name, id);
  return id;
}

NodeId Topology::findNode(const std::string& name) const {
  auto it = node_index_.find(name);
  return it == node_index_.end() ? kNoNode : it->second;
}

LinkId Topology::findLink(const std::string& name) const {
  auto it = link_index_.find(name);
  return it == link_index_.end() ? kNoLink : it->second;
}

NodeId Topology::peer(LinkId id, NodeId from) const {
  const Link& l = link(id);
  if (l.a == from) return l.b;
  if (l.b == from) return l.a;
  throw UsageError("node is not an endpoint of link '" + l.name + "'");
}

Topology Topology::fromConfig(const util::Config& cfg) {
  Topology topo;
  for (const auto* sec : cfg.sectionsOfType("node")) {
    const std::string kind = util::toLower(sec->getString("kind", "host"));
    if (kind == "router") {
      topo.addRouter(sec->name());
    } else if (kind == "host") {
      topo.addHost(sec->name());
    } else {
      throw ConfigError("node '" + sec->name() + "' has unknown kind '" + kind + "'");
    }
  }
  for (const auto* sec : cfg.sectionsOfType("link")) {
    NodeId a = topo.findNode(sec->getString("a"));
    NodeId b = topo.findNode(sec->getString("b"));
    if (a == kNoNode || b == kNoNode) {
      throw ConfigError("link '" + sec->name() + "' references unknown node");
    }
    topo.addLink(sec->name(), a, b, sec->getBandwidth("bandwidth"),
                 sim::fromSeconds(sec->getTime("latency")),
                 sec->has("queue") ? sec->getSize("queue") : 256 * 1024,
                 sec->getDouble("loss", 0.0));
  }
  return topo;
}

// ---------------------------------------------------------------------------
// RoutingTable
// ---------------------------------------------------------------------------

namespace {
constexpr double kMtuBits = 1500.0 * 8.0;
}

RoutingTable::RoutingTable(const Topology& topo) { recompute(topo); }

void RoutingTable::recompute(const Topology& topo) {
  topo_ = &topo;
  n_ = topo.nodeCount();
  cols_.clear();
  cols_.resize(static_cast<size_t>(n_));
  columns_built_ = 0;
}

const RoutingTable::Column& RoutingTable::columnFor(NodeId dst) const {
  std::unique_ptr<Column>& col = cols_[static_cast<size_t>(dst)];
  if (col) return *col;

  const Topology& topo = *topo_;
  // One Dijkstra per destination, relaxing toward the destination so that
  // column(dst).next[from] is the first link on the shortest from->dst path.
  // Links are symmetric, so shortest paths to dst equal reversed paths
  // from dst.
  std::vector<double> dist(static_cast<size_t>(n_), std::numeric_limits<double>::infinity());
  std::vector<LinkId> via(static_cast<size_t>(n_), kNoLink);
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[static_cast<size_t>(dst)] = 0;
  pq.emplace(0.0, dst);
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[static_cast<size_t>(u)]) continue;
    // Down nodes do not forward: no path may transit them. They do keep a
    // first hop *out* (dist/via assigned when a live neighbor relaxes into
    // them), so a crashing host's already-queued packets — its last-gasp
    // RSTs — can still leave.
    if (!topo.node(u).up && u != dst) continue;
    for (LinkId lid : topo.linksAt(u)) {
      const Link& l = topo.link(lid);
      if (!l.up) continue;
      const NodeId v = topo.peer(lid, u);
      const double w = sim::toSeconds(l.latency) + kMtuBits / l.bandwidth_bps;
      const double nd = d + w;
      auto& dv = dist[static_cast<size_t>(v)];
      // Strictly-better, or equal-cost tie broken toward the lower
      // upstream node id for determinism.
      if (nd < dv - 1e-15 || (nd <= dv + 1e-15 && via[static_cast<size_t>(v)] != kNoLink &&
                              u < topo.peer(via[static_cast<size_t>(v)], v))) {
        dv = std::min(dv, nd);
        via[static_cast<size_t>(v)] = lid;
        pq.emplace(nd, v);
      }
    }
  }
  via[static_cast<size_t>(dst)] = kNoLink;

  col = std::make_unique<Column>();
  col->next = std::move(via);
  ++columns_built_;
  return *col;
}

int RoutingTable::columnsBuilt() const { return columns_built_; }

LinkId RoutingTable::nextLink(NodeId from, NodeId dst) const {
  if (from < 0 || from >= n_ || dst < 0 || dst >= n_) throw UsageError("route endpoint out of range");
  if (from == dst) return kNoLink;
  return columnFor(dst).next[static_cast<size_t>(from)];
}

std::vector<LinkId> RoutingTable::path(NodeId src, NodeId dst) const {
  std::vector<LinkId> out;
  NodeId at = src;
  while (at != dst) {
    LinkId lid = nextLink(at, dst);
    if (lid == kNoLink) return {};
    out.push_back(lid);
    at = topo_->peer(lid, at);
    if (out.size() > static_cast<size_t>(n_)) {
      throw UsageError("routing loop detected");  // cannot happen with Dijkstra next-hops
    }
  }
  return out;
}

sim::SimTime RoutingTable::pathLatency(const Topology& topo, NodeId src, NodeId dst) const {
  if (src == dst) return 0;
  auto p = path(src, dst);
  if (p.empty()) return -1;
  sim::SimTime total = 0;
  for (LinkId lid : p) total += topo.link(lid).latency;
  return total;
}

double RoutingTable::bottleneckBandwidth(const Topology& topo, NodeId src, NodeId dst) const {
  if (src == dst) return 0;
  auto p = path(src, dst);
  if (p.empty()) return 0;
  double bw = std::numeric_limits<double>::infinity();
  for (LinkId lid : p) bw = std::min(bw, topo.link(lid).bandwidth_bps);
  return bw;
}

}  // namespace mg::net
