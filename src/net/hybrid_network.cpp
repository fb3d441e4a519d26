#include "net/hybrid_network.h"

#include <algorithm>
#include <charconv>

#include "util/error.h"

namespace mg::net {

bool globMatch(std::string_view pattern, std::string_view text) {
  // Iterative matcher with single-star backtracking: on mismatch past a
  // '*', re-anchor the star to swallow one more character.
  std::size_t p = 0, t = 0;
  std::size_t star = std::string_view::npos, mark = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

namespace {

int parsePort(std::string_view s, const std::string& pattern) {
  int v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size() || v < 0 || v > 65535) {
    throw ConfigError("bad port in --netmodel-detail pattern: " + pattern);
  }
  return v;
}

}  // namespace

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
      if (globMatch(body, topo.node(n).name)) {
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

HybridNetwork::HybridNetwork(sim::Simulator& sim, Topology topo, HybridNetworkOptions opts)
    : PacketNetwork(sim, std::move(topo), opts.packet),
      selector_(topology(), opts.detail),
      engine_(*this,
              [&opts] {
                FlowNetworkOptions f = opts.flow;
                f.time_scale = opts.packet.time_scale;
                return f;
              }()) {}

void HybridNetwork::onLinkDown(LinkId link) {
  PacketNetwork::onLinkDown(link);
  engine_.abortFlowsOnLink(link, "link_down");
}

void HybridNetwork::onLinkUp(LinkId link) {
  // Up transitions touch only the packet side: a restored link carries no
  // fluid flows (they were aborted on the way down) and routes are fixed at
  // flow start, so no active flow's share can change.
  PacketNetwork::onLinkUp(link);
}

void HybridNetwork::onNodeDown(NodeId node) {
  PacketNetwork::onNodeDown(node);
  engine_.abortFlowsAtNode(node, "node_down");
}

void HybridNetwork::onNodeUp(NodeId node) {
  PacketNetwork::onNodeUp(node);
}

void HybridNetwork::onLinkParamsChanged(LinkId link) {
  PacketNetwork::onLinkParamsChanged(link);
  // Re-share only the contention component touching the changed link; a
  // degrade under escalated packet traffic never reaches the fluid engine.
  engine_.onLinkChanged(link);
}

}  // namespace mg::net
