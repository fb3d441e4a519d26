#include "vos/virtual_host.h"

namespace mg::vos {

void HostMapper::add(VirtualHostInfo info) {
  if (info.hostname.empty()) throw ConfigError("virtual host needs a hostname");
  if (contains(info.hostname) || (!info.virtual_ip.empty() && contains(info.virtual_ip))) {
    throw ConfigError("duplicate virtual host '" + info.hostname + "'");
  }
  const auto pos = static_cast<std::int32_t>(hosts_.size());
  hosts_.push_back(std::move(info));
  const VirtualHostInfo& h = hosts_.back();
  by_name_.insert(h.hostname, 2 * pos, entryName());
  if (!h.virtual_ip.empty()) by_name_.insert(h.virtual_ip, 2 * pos + 1, entryName());
  if (h.node >= 0) {
    const auto n = static_cast<std::size_t>(h.node);
    if (n >= by_node_.size()) by_node_.resize(n + 1, -1);
    if (by_node_[n] < 0) by_node_[n] = pos;  // the first host on a node keeps it
  }
}

std::size_t HostMapper::indexOf(const std::string& name_or_ip) const {
  const std::int32_t e = find(name_or_ip);
  if (e == util::NameIndex::kNone) throw UnknownHost(name_or_ip);
  return static_cast<std::size_t>(e / 2);
}

const VirtualHostInfo& HostMapper::byNode(net::NodeId node) const {
  const auto n = static_cast<std::size_t>(node);
  if (node < 0 || n >= by_node_.size() || by_node_[n] < 0) {
    throw UnknownHost("node " + std::to_string(node));
  }
  return hosts_[static_cast<std::size_t>(by_node_[n])];
}

bool HostMapper::contains(const std::string& name_or_ip) const {
  return find(name_or_ip) != util::NameIndex::kNone;
}

}  // namespace mg::vos
