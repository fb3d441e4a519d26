#include "net/flow_engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "net/network.h"
#include "util/error.h"

namespace mg::net {
namespace {

// Rates within this relative tolerance keep their scheduled drain event;
// cancelling + rescheduling for sub-ulp share jitter would churn the event
// heap for no modeled effect.
constexpr double kRateEpsilon = 1e-12;

bool rateChanged(double a, double b) {
  const double scale = std::max({std::abs(a), std::abs(b), 1.0});
  return std::abs(a - b) > kRateEpsilon * scale;
}

}  // namespace

FlowEngine::FlowEngine(Network& net, bool incremental)
    : model_(net),
      sim_(net.simulator()),
      incremental_(incremental),
      c_started_(sim_.metrics().counter("net.flow.started")),
      c_completed_(sim_.metrics().counter("net.flow.completed")),
      c_aborted_(sim_.metrics().counter("net.flow.aborted")),
      c_bytes_(sim_.metrics().counter("net.flow.payload_bytes")),
      c_recomputes_(sim_.metrics().counter("net.flow.share_recomputes")),
      c_visited_(sim_.metrics().counter("net.flow.recompute_flow_visits")),
      c_stalled_(sim_.metrics().counter("net.flow.stalls")),
      g_active_(sim_.metrics().gauge("net.flow.active")),
      g_peak_(sim_.metrics().gauge("net.flow.active_peak")),
      h_scope_(sim_.metrics().histogram("net.flow.recompute_flows", 0, 4096, 64)) {
  const auto links = static_cast<std::size_t>(model_.topology().linkCount());
  dlink_flows_.resize(links * 2);
  dlink_mark_.assign(links * 2, 0);
  cap_.assign(links * 2, 0.0);
  cnt_.assign(links * 2, 0);
  round_mark_.assign(links * 2, 0);
  link_active_.assign(links, 0);
  link_busy_since_.assign(links, 0);
  link_busy_s_.assign(links, 0.0);
  g_link_busy_.assign(links, nullptr);
  g_link_util_.assign(links, nullptr);
}

double FlowEngine::nowNetSeconds() const {
  return sim::toSeconds(sim_.now()) / model_.timeScale();
}

sim::SimTime FlowEngine::estimate(NodeId src, NodeId dst, std::int64_t payload_bytes) const {
  if (payload_bytes < 0) throw UsageError("negative transfer size");
  if (src == dst) return kPerMessageOverhead;
  const Topology& topo = model_.topology();
  if (src < 0 || src >= topo.nodeCount() || dst < 0 || dst >= topo.nodeCount()) {
    throw UsageError("flow endpoint out of range");
  }
  sim::SimTime latency = 0;
  double bottleneck = std::numeric_limits<double>::infinity();
  const bool routed = model_.routing().forEachHop(src, dst, [&](LinkId lid) {
    const Link& l = topo.link(lid);
    latency += l.latency;
    bottleneck = std::min(bottleneck, l.bandwidth_bps);
  });
  if (!routed) throw ConfigError("no route between nodes");
  if (bottleneck <= 0.0) throw ConfigError("route has zero capacity (degraded link)");
  const double wire_bits = static_cast<double>(payload_bytes) * kByteOverhead * 8.0;
  return kPerMessageOverhead + latency + sim::fromSeconds(wire_bits / bottleneck);
}

FlowId FlowEngine::start(NodeId src, NodeId dst, std::int64_t payload_bytes,
                         CompleteFn on_complete, AbortFn on_abort, DrainFn on_drain) {
  if (payload_bytes < 0) throw UsageError("negative transfer size");
  const double wire_bits = static_cast<double>(payload_bytes) * kByteOverhead * 8.0;
  return startBits(src, dst, wire_bits, payload_bytes, std::move(on_complete),
                   std::move(on_abort), std::move(on_drain));
}

FlowId FlowEngine::startBits(NodeId src, NodeId dst, double wire_bits,
                             std::int64_t payload_bytes, CompleteFn on_complete,
                             AbortFn on_abort, DrainFn on_drain) {
  const Topology& topo = model_.topology();
  if (src < 0 || src >= topo.nodeCount() || dst < 0 || dst >= topo.nodeCount()) {
    throw UsageError("flow endpoint out of range");
  }
  c_started_.inc();
  c_bytes_.inc(payload_bytes);

  if (src == dst) {
    // Loopback never touches the wire: per-message software overhead only.
    // No link capacity is held, so the drain boundary is immediate.
    if (on_drain) sim_.scheduleAt(sim_.now(), std::move(on_drain));
    sim_.scheduleAfter(model_.scaleDuration(kPerMessageOverhead),
                       [this, cb = std::move(on_complete)] {
                         c_completed_.inc();
                         if (cb) cb();
                       });
    return kNoFlow;
  }

  const std::vector<LinkId> path = model_.routing().path(src, dst);
  if (path.empty()) throw ConfigError("no route between nodes");

  Flow f;
  f.src = src;
  f.dst = dst;
  f.on_complete = std::move(on_complete);
  f.on_abort = std::move(on_abort);
  f.dlinks.reserve(path.size());
  f.nodes.reserve(path.size() + 1);
  NodeId at = src;
  f.nodes.push_back(at);
  for (LinkId lid : path) {
    const Link& l = topo.link(lid);
    const int dir = (at == l.a) ? 0 : 1;
    f.dlinks.push_back(static_cast<std::uint32_t>(lid) * 2 + static_cast<std::uint32_t>(dir));
    f.latency += l.latency;
    at = topo.peer(lid, at);
    f.nodes.push_back(at);
  }

  if (wire_bits <= 0.0) {
    // Zero-length payloads (EOF markers, bare signals) ride the latency +
    // overhead path without ever occupying link capacity.
    if (on_drain) sim_.scheduleAt(sim_.now(), std::move(on_drain));
    sim_.scheduleAfter(model_.scaleDuration(f.latency + kPerMessageOverhead),
                       [this, cb = std::move(f.on_complete)] {
                         c_completed_.inc();
                         if (cb) cb();
                       });
    return kNoFlow;
  }

  f.on_drain = std::move(on_drain);
  f.remaining_bits = wire_bits;
  const sim::SimTime now = sim_.now();
  f.last_integrated = now;
  if (sim_.spans().enabled()) f.span = sim_.spans().begin("net.flow", "flow", topo.node(src).name);

  const FlowId id = next_id_++;
  auto [it, inserted] = flows_.emplace(id, std::move(f));
  indexFlow(id, it->second, now);
  if (static_cast<std::int64_t>(flows_.size()) > peak_active_) {
    peak_active_ = static_cast<std::int64_t>(flows_.size());
  }
  publishActiveGauges();
  // Only the new flow's contention component can change rates.
  beginComponent();
  for (std::uint32_t d : it->second.dlinks) seedDlink(d);
  recomputeComponent();
  return id;
}

void FlowEngine::integrateFlow(Flow& f, sim::SimTime now) {
  if (now == f.last_integrated) return;
  const double dt = sim::toSeconds(now - f.last_integrated) / model_.timeScale();
  f.last_integrated = now;
  if (dt <= 0.0 || f.rate_bps <= 0.0) return;
  f.remaining_bits = std::max(0.0, f.remaining_bits - f.rate_bps * dt);
}

void FlowEngine::indexFlow(FlowId id, Flow& f, sim::SimTime now) {
  for (std::uint32_t d : f.dlinks) {
    dlink_flows_[d].push_back(IndexEntry{id, &f});
    const std::size_t lid = d >> 1;
    if (link_active_[lid]++ == 0) {
      link_busy_since_[lid] = now;
      publishLinkGauges(lid, now);
    }
  }
}

void FlowEngine::unindexFlow(FlowId id, const Flow& f, sim::SimTime now) {
  for (std::uint32_t d : f.dlinks) {
    auto& v = dlink_flows_[d];
    v.erase(std::find_if(v.begin(), v.end(),
                         [id](const IndexEntry& e) { return e.id == id; }));
    const std::size_t lid = d >> 1;
    if (--link_active_[lid] == 0) {
      link_busy_s_[lid] += sim::toSeconds(now - link_busy_since_[lid]) / model_.timeScale();
      publishLinkGauges(lid, now);
    }
  }
}

void FlowEngine::beginComponent() {
  ++comp_epoch_;
  comp_.clear();
  comp_dlinks_.clear();
}

void FlowEngine::seedDlink(std::uint32_t d) {
  if (dlink_mark_[d] == comp_epoch_) return;
  dlink_mark_[d] = comp_epoch_;
  comp_dlinks_.push_back(d);
}

void FlowEngine::recomputeComponent() {
  c_recomputes_.inc();
  if (incremental_) {
    // Close the component: alternate link→flows (reverse index) and
    // flow→links (routes) until no new element appears. comp_dlinks_
    // doubles as the BFS worklist.
    for (std::size_t i = 0; i < comp_dlinks_.size(); ++i) {
      for (const IndexEntry& e : dlink_flows_[comp_dlinks_[i]]) {
        Flow& f = *e.flow;
        if (f.mark == comp_epoch_) continue;
        f.mark = comp_epoch_;
        comp_.push_back(e);
        for (std::uint32_t d : f.dlinks) seedDlink(d);
      }
    }
    std::sort(comp_.begin(), comp_.end(),
              [](const IndexEntry& a, const IndexEntry& b) { return a.id < b.id; });
  } else {
    // Full-recompute oracle: every active flow, every loaded dlink.
    // Produces bit-identical rates (progressive filling never moves
    // bandwidth between components), just without the scoping win. A fresh
    // epoch discards the caller's seeds (they are a subset of the full set).
    beginComponent();
    for (auto& [fid, f] : flows_) {
      comp_.push_back(IndexEntry{fid, &f});
      for (std::uint32_t d : f.dlinks) seedDlink(d);
    }
  }
  c_visited_.inc(static_cast<std::int64_t>(comp_.size()));
  h_scope_.add(static_cast<double>(comp_.size()));
  if (comp_.empty()) return;
  shareComponent();
  rescheduleComponent();
}

void FlowEngine::shareComponent() {
  const Topology& topo = model_.topology();
  // Progressive filling over directed links. Each direction of a link is an
  // independent full-bandwidth resource, matching the packet model's two
  // per-direction transmit queues.
  for (const IndexEntry& e : comp_) {
    Flow* f = e.flow;
    f->fixed = false;
    f->new_rate = 0;
    for (std::uint32_t d : f->dlinks) ++cnt_[d];
  }
  heap_.clear();
  for (std::uint32_t d : comp_dlinks_) {
    if (cnt_[d] == 0) continue;  // seed link carrying no flows
    cap_[d] = topo.link(static_cast<LinkId>(d >> 1)).bandwidth_bps;
    heap_.emplace_back(cap_[d] / cnt_[d], d);
  }
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>());

  // Each round pops the bottleneck: the directed link with the smallest
  // fair share, ties toward the lowest dlink id — pair ordering under
  // greater<> gives exactly that lexicographic minimum. Entries go stale
  // when a later round changes their link's cap/cnt; a stale entry is
  // detected by recomputing the share (bitwise — same operands divide to
  // the same double) and skipped, because a fresh entry for the current
  // state was pushed when the state was created.
  int remaining = static_cast<int>(comp_.size());
  while (remaining > 0 && !heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const auto [share, best] = heap_.back();
    heap_.pop_back();
    if (cnt_[best] <= 0) continue;               // fully released link
    if (share != cap_[best] / cnt_[best]) continue;  // stale entry
    // Fix every unfixed flow crossing the bottleneck at its fair share,
    // then release its claim on the rest of its route. The per-link result
    // is order-independent: every fixed flow subtracts the same share.
    ++round_epoch_;
    dirty_.clear();
    for (const IndexEntry& e : dlink_flows_[best]) {
      Flow& f = *e.flow;
      if (f.fixed) continue;
      f.fixed = true;
      f.new_rate = share;
      --remaining;
      for (std::uint32_t d : f.dlinks) {
        cap_[d] = std::max(0.0, cap_[d] - share);
        --cnt_[d];
        if (round_mark_[d] != round_epoch_) {
          round_mark_[d] = round_epoch_;
          dirty_.push_back(d);
        }
      }
    }
    for (std::uint32_t d : dirty_) {
      if (cnt_[d] <= 0) continue;
      heap_.emplace_back(cap_[d] / cnt_[d], d);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
  }

  // Restore the all-zero invariant for the next component.
  for (std::uint32_t d : comp_dlinks_) {
    cap_[d] = 0.0;
    cnt_[d] = 0;
  }
}

void FlowEngine::rescheduleComponent() {
  const sim::SimTime now = sim_.now();
  // Ascending FlowId (comp_ is sorted): same-time drain events keep the
  // kernel's insertion order stable across incremental and full modes.
  for (const IndexEntry& e : comp_) {
    Flow& f = *e.flow;
    if (f.new_rate <= 0.0) {
      // Every path to a positive share runs through a zero-capacity link:
      // park the flow instead of scheduling an infinite drain. It keeps its
      // route (and so its place in the contention component), and resumes
      // when onLinkChanged() re-shares the component with capacity back.
      if (f.stalled) continue;
      integrateFlow(f, now);
      if (f.drain_event != 0) {
        sim_.cancel(f.drain_event);
        f.drain_event = 0;
      }
      f.rate_bps = 0.0;
      f.stalled = true;
      c_stalled_.inc();
      continue;
    }
    if (f.drain_event != 0 && !rateChanged(f.new_rate, f.rate_bps)) continue;
    integrateFlow(f, now);
    if (f.drain_event != 0) sim_.cancel(f.drain_event);
    f.stalled = false;
    f.rate_bps = f.new_rate;
    const double drain_s = f.remaining_bits / f.rate_bps;
    const FlowId fid = e.id;
    f.drain_event = sim_.scheduleAfter(model_.scaleDuration(sim::fromSeconds(drain_s)),
                                       [this, fid] { finishDrain(fid); });
  }
}

void FlowEngine::finishDrain(FlowId id) {
  auto it = flows_.find(id);
  if (it == flows_.end()) return;
  const sim::SimTime now = sim_.now();
  Flow f = std::move(it->second);
  integrateFlow(f, now);
  unindexFlow(id, f, now);
  flows_.erase(it);
  c_completed_.inc();
  publishActiveGauges();
  // The last bit leaves the source when the drain finishes; it still has to
  // propagate (path latency) and clear the receive stack (per-message
  // overhead) before the receiver sees the message.
  const sim::SimTime tail = f.latency + kPerMessageOverhead;
  sim_.scheduleAfter(model_.scaleDuration(tail),
                     [this, cb = std::move(f.on_complete), span = f.span] {
                       if (span != 0) sim_.spans().end(span);
                       if (cb) cb();
                     });
  // Chain before re-sharing: a pipelined sender's next chunk starts at this
  // exact instant and should be part of the same recompute. The chained
  // start runs its own scoped recompute, so seeds are collected only after
  // it returns (beginComponent() state is not reentrant).
  if (f.on_drain) f.on_drain();
  beginComponent();
  for (std::uint32_t d : f.dlinks) seedDlink(d);
  recomputeComponent();
}

void FlowEngine::abortMatching(const std::function<bool(const Flow&)>& pred,
                               const std::string& reason) {
  const sim::SimTime now = sim_.now();
  abort_seeds_.clear();
  bool any = false;
  for (auto it = flows_.begin(); it != flows_.end();) {
    if (!pred(it->second)) {
      ++it;
      continue;
    }
    const FlowId id = it->first;
    Flow f = std::move(it->second);
    it = flows_.erase(it);
    any = true;
    integrateFlow(f, now);
    unindexFlow(id, f, now);
    c_aborted_.inc();
    if (f.drain_event != 0) sim_.cancel(f.drain_event);
    if (f.span != 0) sim_.spans().endWith(f.span, "aborted", reason);
    if (f.on_abort) {
      // Deliver the abort in event context, never from inside a fault hook.
      sim_.scheduleAt(now, [cb = std::move(f.on_abort), reason] { cb(reason); });
    }
    abort_seeds_.insert(abort_seeds_.end(), f.dlinks.begin(), f.dlinks.end());
  }
  if (!any) return;
  publishActiveGauges();
  assert(indexConsistent());
  // The removed flows may have bridged several components; the multi-seed
  // closure re-shares their (disjoint) union, which progressive filling
  // handles identically to sharing each part alone.
  beginComponent();
  for (std::uint32_t d : abort_seeds_) seedDlink(d);
  recomputeComponent();
}

void FlowEngine::abortFlowsOnLink(LinkId link, const std::string& reason) {
  abortMatching(
      [link](const Flow& f) {
        for (std::uint32_t d : f.dlinks) {
          if (static_cast<LinkId>(d >> 1) == link) return true;
        }
        return false;
      },
      reason);
}

void FlowEngine::abortFlowsAtNode(NodeId node, const std::string& reason) {
  // Endpoint or transit: a crashed router stops forwarding, so flows routed
  // through it die exactly as their packets would.
  abortMatching(
      [node](const Flow& f) {
        for (NodeId n : f.nodes) {
          if (n == node) return true;
        }
        return false;
      },
      reason);
}

void FlowEngine::onLinkChanged(LinkId link) {
  if (flows_.empty()) return;
  assert(indexConsistent());
  beginComponent();
  seedDlink(static_cast<std::uint32_t>(link) * 2);
  seedDlink(static_cast<std::uint32_t>(link) * 2 + 1);
  recomputeComponent();
}

double FlowEngine::currentRateBps(FlowId id) const {
  auto it = flows_.find(id);
  return it == flows_.end() ? 0.0 : it->second.rate_bps;
}

bool FlowEngine::isStalled(FlowId id) const {
  auto it = flows_.find(id);
  return it != flows_.end() && it->second.stalled;
}

double FlowEngine::linkBusySeconds(std::size_t lid, sim::SimTime now) const {
  double busy = link_busy_s_[lid];
  if (link_active_[lid] > 0) {
    busy += sim::toSeconds(now - link_busy_since_[lid]) / model_.timeScale();
  }
  return busy;
}

double FlowEngine::linkUtilization(LinkId link) const {
  const double elapsed = nowNetSeconds();
  if (elapsed <= 0.0) return 0.0;
  return linkBusySeconds(static_cast<std::size_t>(link), sim_.now()) / elapsed;
}

void FlowEngine::registerTelemetry(sim::TelemetrySampler& sampler) {
  sampler.addLevel("net.flow.active",
                   [this](std::int64_t) { return static_cast<double>(flows_.size()); });
  sampler.addCounterRate("net.flow.completed_per_s", c_completed_);
  sampler.addCounterRate("net.flow.bytes_per_s", c_bytes_);
  const Topology& topo = model_.topology();
  for (LinkId l = 0; l < topo.linkCount(); ++l) {
    // Cumulative busy time in *kernel* seconds (linkBusySeconds reports
    // network seconds), so the sampled rate is the fraction of kernel time
    // the link carried >= 1 flow — utilization on the same clock as every
    // other series.
    sampler.addRate("net.flow.link_util." + topo.link(l).name, [this, l](std::int64_t t) {
      return linkBusySeconds(static_cast<std::size_t>(l), t) * model_.timeScale();
    });
  }
}

void FlowEngine::publishLinkGauges(std::size_t lid, sim::SimTime now) {
  if (g_link_busy_[lid] == nullptr) {
    const std::string& name = model_.topology().link(static_cast<LinkId>(lid)).name;
    g_link_busy_[lid] = &sim_.metrics().gauge("net.flow.link_busy_s." + name);
    g_link_util_[lid] = &sim_.metrics().gauge("net.flow.link_util." + name);
  }
  const double busy = linkBusySeconds(lid, now);
  g_link_busy_[lid]->set(busy);
  const double elapsed = nowNetSeconds();
  if (elapsed > 0.0) g_link_util_[lid]->set(busy / elapsed);
}

bool FlowEngine::indexConsistent() const {
  // Every flow listed exactly once per route dlink, no orphan index
  // entries, per-link active counts equal to crossing-flow occurrences.
  std::size_t total_entries = 0;
  std::vector<int> active(link_active_.size(), 0);
  for (const auto& [id, f] : flows_) {
    if (f.drain_event != 0 && f.stalled) return false;
    for (std::uint32_t d : f.dlinks) {
      const auto& v = dlink_flows_[d];
      const auto match = [id = id](const IndexEntry& e) { return e.id == id; };
      if (std::count_if(v.begin(), v.end(), match) != 1) return false;
      ++active[d >> 1];
      ++total_entries;
    }
  }
  std::size_t indexed = 0;
  for (const auto& v : dlink_flows_) {
    indexed += v.size();
    for (const IndexEntry& e : v) {
      auto it = flows_.find(e.id);
      if (it == flows_.end() || &it->second != e.flow) return false;
    }
  }
  if (indexed != total_entries) return false;
  for (std::size_t lid = 0; lid < active.size(); ++lid) {
    if (active[lid] != link_active_[lid]) return false;
  }
  return true;
}

void FlowEngine::publishActiveGauges() {
  g_active_.set(static_cast<double>(flows_.size()));
  g_peak_.set(static_cast<double>(peak_active_));
}

void FlowEngine::saveState(obs::StateWriter& w) const {
  w.u64("net.flow.active", flows_.size());
  w.u64("net.flow.next_id", next_id_);
  for (const auto& [id, f] : flows_) {
    w.u64("flow", id);
    w.i64("src", f.src);
    w.i64("dst", f.dst);
    w.f64("remaining", f.remaining_bits);
    w.f64("rate", f.rate_bps);
    w.i64("integrated", f.last_integrated);
    w.boolean("stalled", f.stalled);
  }
}

}  // namespace mg::net
