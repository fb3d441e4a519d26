// Virtual host descriptors and the virtual->physical mapping table.
//
// Paper §2.2.1: "each virtual host is mapped to a physical machine using a
// mapping table from virtual IP address to physical IP address. All relevant
// library calls are intercepted and mapped from virtual to physical space."
// HostMapper is that table; resolve() is the interposed gethostbyname().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/topology.h"
#include "util/error.h"
#include "util/name_index.h"

namespace mg::vos {

/// One virtual host: identity, resources, and its physical placement.
struct VirtualHostInfo {
  std::string hostname;       // e.g. "vm0.ucsd.edu"
  std::string virtual_ip;     // e.g. "1.11.11.1"
  double cpu_ops = 0;         // virtual CPU speed, operations/second
  std::int64_t memory_bytes = 0;
  std::string physical_host;  // name of the physical machine it maps to
  net::NodeId node = net::kNoNode;  // this host's node in the virtual topology
};

/// Unknown hostname / IP passed to a name-resolution call.
class UnknownHost : public mg::Error {
 public:
  explicit UnknownHost(const std::string& name) : mg::Error("unknown virtual host: " + name) {}
};

class HostMapper {
 public:
  /// Register a virtual host. Hostnames and IPs must be unique, and no
  /// hostname may equal another host's IP; throws ConfigError.
  void add(VirtualHostInfo info);

  /// Position in hosts() of a hostname or virtual IP; throws UnknownHost.
  std::size_t indexOf(const std::string& name_or_ip) const;

  /// Resolve a hostname or virtual IP; throws UnknownHost.
  const VirtualHostInfo& resolve(const std::string& name_or_ip) const {
    return hosts_[indexOf(name_or_ip)];
  }

  /// Lookup by topology node; throws UnknownHost (a router has no host).
  const VirtualHostInfo& byNode(net::NodeId node) const;

  bool contains(const std::string& name_or_ip) const;

  const std::vector<VirtualHostInfo>& hosts() const { return hosts_; }

 private:
  // by_name_ holds 2 * pos for hosts_[pos]'s hostname and 2 * pos + 1 for
  // its virtual IP; find() returns that entry, or NameIndex::kNone.
  auto entryName() const {
    return [this](std::int32_t e) -> const std::string& {
      const VirtualHostInfo& h = hosts_[static_cast<std::size_t>(e / 2)];
      return e % 2 == 0 ? h.hostname : h.virtual_ip;
    };
  }
  std::int32_t find(const std::string& name_or_ip) const {
    return by_name_.find(name_or_ip, entryName());
  }

  std::vector<VirtualHostInfo> hosts_;
  // Generated 100k-host grids resolve names once per host and per
  // connection, so both lookups are O(1): hostnames and IPs through one
  // flat name index, nodes through a dense node-id table (-1: no host).
  util::NameIndex by_name_;
  std::vector<std::int32_t> by_node_;
};

}  // namespace mg::vos
