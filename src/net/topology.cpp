#include "net/topology.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "util/error.h"
#include "util/strings.h"

namespace mg::net {

NodeId Topology::addHost(std::string name) { return addNode(std::move(name), NodeKind::Host); }

NodeId Topology::addRouter(std::string name) { return addNode(std::move(name), NodeKind::Router); }

NodeId Topology::addNode(std::string name, NodeKind kind) {
  const auto id = static_cast<NodeId>(nodes_.size());
  if (node_index_.insert(name, id, nodeName()) != id) {
    throw ConfigError("duplicate node '" + name + "'");
  }
  nodes_.push_back(Node{std::move(name), kind});
  adjacency_.emplace_back();
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
  // The index keeps the first id on a duplicate name (the old scan order).
  link_index_.insert(links_.back().name, id, linkName());
  return id;
}

NodeId Topology::findNode(std::string_view name) const {
  return node_index_.find(name, nodeName());
}

LinkId Topology::findLink(std::string_view name) const {
  return link_index_.find(name, linkName());
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
  const auto n = static_cast<size_t>(n_);
  auto weight = [](const Link& l) {
    return sim::toSeconds(l.latency) + kMtuBits / l.bandwidth_bps;
  };

  // Classify. A stub's single link must lead to a node with other links (so
  // the router stays core), and its weight must be finite and large enough
  // (2w > 1e-15) that the stub's own relaxation back into its router can
  // never pass the equal-cost tie test: the full-graph run would then never
  // let a stub change a core node's distance or next hop. A zero-bandwidth
  // (infinite-weight) uplink stays core and is simply never relaxed.
  //
  // One pass over the links finds the stubs, a second over the nodes hands
  // out core indices in node-id order.
  stubs_.clear();
  core_nodes_.clear();
  core_up_.clear();
  slot_.assign(n, 0);
  std::vector<char> stub_link(static_cast<size_t>(topo.linkCount()), 0);
  for (LinkId lid = 0; lid < topo.linkCount(); ++lid) {
    const Link& l = topo.link(lid);
    const size_t da = topo.linksAt(l.a).size();
    const size_t db = topo.linksAt(l.b).size();
    if ((da == 1) == (db == 1)) continue;
    const double w = weight(l);
    if (!std::isfinite(w) || !(2 * w > 1e-15)) continue;
    const NodeId v = da == 1 ? l.a : l.b;
    // attach holds the router's node id until core indices exist.
    slot_[static_cast<size_t>(v)] = -1 - static_cast<std::int32_t>(stubs_.size());
    stubs_.push_back(Stub{l.up ? lid : kNoLink, da == 1 ? l.b : l.a, w});
    stub_link[static_cast<size_t>(lid)] = 1;
  }
  for (NodeId v = 0; v < n_; ++v) {
    if (slot_[static_cast<size_t>(v)] < 0) continue;
    slot_[static_cast<size_t>(v)] = static_cast<std::int32_t>(core_nodes_.size());
    core_nodes_.push_back(v);
    core_up_.push_back(topo.node(v).up ? 1 : 0);
  }
  for (Stub& st : stubs_) st.attach = slot_[static_cast<size_t>(st.attach)];

  // Core-only adjacency over up links, in linksAt() order so relaxation
  // order — and with it the equal-cost tie rule — matches the full graph.
  arc_begin_.assign(core_nodes_.size() + 1, 0);
  arcs_.clear();
  for (size_t c = 0; c < core_nodes_.size(); ++c) {
    const NodeId u = core_nodes_[c];
    for (LinkId lid : topo.linksAt(u)) {
      if (stub_link[static_cast<size_t>(lid)]) continue;
      const Link& l = topo.link(lid);
      if (!l.up) continue;
      arcs_.push_back(Arc{slot_[static_cast<size_t>(l.a == u ? l.b : l.a)], lid, weight(l)});
    }
    arc_begin_[c + 1] = static_cast<std::int32_t>(arcs_.size());
  }

  cols_.clear();
  cols_.resize(n);
  columns_built_ = 0;
}

const RoutingTable::Column& RoutingTable::columnFor(NodeId dst) const {
  std::unique_ptr<Column>& col = cols_[static_cast<size_t>(dst)];
  if (col) return *col;

  // One Dijkstra per destination over core nodes, relaxing toward the
  // destination so that next[c] is the first link on the shortest c->dst
  // path. Links are symmetric, so shortest paths to dst equal reversed
  // paths from dst. Heap entries carry core indices, which order like node
  // ids, so equal-distance pops come out in the full graph's order.
  const size_t nc = core_nodes_.size();
  auto built = std::make_unique<Column>();
  std::vector<LinkId>& via = built->next;
  via.assign(nc, kNoLink);
  std::vector<double> dist(nc, std::numeric_limits<double>::infinity());
  std::vector<NodeId> from(nc, kNoNode);  // upstream node id behind via
  using Item = std::pair<double, std::int32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  const std::int32_t ds = slot_[static_cast<size_t>(dst)];
  if (ds >= 0) {
    dist[static_cast<size_t>(ds)] = 0;
    pq.emplace(0.0, ds);
  } else if (const Stub& st = stubs_[static_cast<size_t>(-1 - ds)]; st.uplink != kNoLink) {
    // A stub destination contributes exactly the full run's first
    // relaxation: its router at 0 + w, reached over the uplink.
    const auto r = static_cast<size_t>(st.attach);
    dist[r] = 0.0 + st.w;
    via[r] = st.uplink;
    from[r] = dst;
    pq.emplace(dist[r], st.attach);
  }
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[static_cast<size_t>(u)]) continue;
    // Down nodes do not forward: no path may transit them. They do keep a
    // first hop *out* (dist/via assigned when a live neighbor relaxes into
    // them), so a crashing host's already-queued packets — its last-gasp
    // RSTs — can still leave.
    if (!core_up_[static_cast<size_t>(u)] && u != ds) continue;
    const NodeId uid = core_nodes_[static_cast<size_t>(u)];
    const Arc* a = arcs_.data() + arc_begin_[static_cast<size_t>(u)];
    const Arc* end = arcs_.data() + arc_begin_[static_cast<size_t>(u) + 1];
    for (; a != end; ++a) {
      const auto v = static_cast<size_t>(a->to);
      const double nd = d + a->w;
      double& dv = dist[v];
      // Strictly-better, or equal-cost tie broken toward the lower
      // upstream node id for determinism.
      if (nd < dv - 1e-15 || (nd <= dv + 1e-15 && via[v] != kNoLink && uid < from[v])) {
        dv = std::min(dv, nd);
        via[v] = a->link;
        from[v] = uid;
        pq.emplace(nd, a->to);
      }
    }
  }
  if (ds >= 0) via[static_cast<size_t>(ds)] = kNoLink;
  col = std::move(built);
  ++columns_built_;
  return *col;
}

int RoutingTable::columnsBuilt() const { return columns_built_; }

void RoutingTable::checkRange(NodeId from, NodeId dst) const {
  if (from < 0 || from >= n_ || dst < 0 || dst >= n_) {
    throw UsageError("route endpoint out of range");
  }
}

void RoutingTable::throwLoop() { throw UsageError("routing loop detected"); }

LinkId RoutingTable::nextLink(NodeId from, NodeId dst) const {
  checkRange(from, dst);
  if (from == dst) return kNoLink;
  return hop(columnFor(dst), from, dst);
}

std::vector<LinkId> RoutingTable::path(NodeId src, NodeId dst) const {
  std::vector<LinkId> out;
  if (!forEachHop(src, dst, [&](LinkId lid) { out.push_back(lid); })) return {};
  return out;
}

sim::SimTime RoutingTable::pathLatency(const Topology& topo, NodeId src, NodeId dst) const {
  sim::SimTime total = 0;
  if (!forEachHop(src, dst, [&](LinkId lid) { total += topo.link(lid).latency; })) return -1;
  return total;
}

double RoutingTable::bottleneckBandwidth(const Topology& topo, NodeId src, NodeId dst) const {
  if (src == dst) return 0;
  double bw = std::numeric_limits<double>::infinity();
  if (!forEachHop(src, dst, [&](LinkId lid) { bw = std::min(bw, topo.link(lid).bandwidth_bps); })) {
    return 0;
  }
  return bw;
}

}  // namespace mg::net
