#include "core/virtual_grid.h"

#include <cmath>
#include <limits>

#include "gis/schema.h"
#include "util/strings.h"

namespace mg::core {

void VirtualGridConfig::addPhysical(const std::string& name, double cpu_ops) {
  if (cpu_ops <= 0) throw ConfigError("physical machine '" + name + "' needs positive CPU speed");
  const auto pos = static_cast<std::int32_t>(physical_.size());
  if (physical_index_.insert(name, pos, machineName()) != pos) {
    throw ConfigError("duplicate physical machine '" + name + "'");
  }
  physical_.push_back(PhysicalMachine{name, cpu_ops});
  virtual_ops_.push_back(0.0);
}

std::size_t VirtualGridConfig::physicalIndex(const std::string& name) const {
  const std::int32_t m = physical_index_.find(name, machineName());
  if (m == util::NameIndex::kNone) throw ConfigError("unknown physical machine '" + name + "'");
  return static_cast<std::size_t>(m);
}

net::NodeId VirtualGridConfig::addHost(const std::string& hostname, const std::string& ip,
                                       double cpu_ops, std::int64_t memory_bytes,
                                       const std::string& physical_name) {
  if (cpu_ops <= 0) throw ConfigError("virtual host '" + hostname + "' needs positive CPU speed");
  if (memory_bytes < 0) throw ConfigError("virtual host '" + hostname + "' has negative memory");
  const std::size_t machine = physicalIndex(physical_name);
  const net::NodeId node = topology_.addHost(hostname);
  mapper_.add(vos::VirtualHostInfo{hostname, ip, cpu_ops, memory_bytes, physical_name, node});
  virtual_ops_[machine] += cpu_ops;
  return node;
}

net::NodeId VirtualGridConfig::addRouter(const std::string& name) {
  return topology_.addRouter(name);
}

net::NodeId VirtualGridConfig::nodeByName(const std::string& name) const {
  const net::NodeId direct = topology_.findNode(name);
  if (direct != net::kNoNode) return direct;
  if (mapper_.contains(name)) return mapper_.resolve(name).node;
  throw ConfigError("unknown node '" + name + "'");
}

net::LinkId VirtualGridConfig::addLink(const std::string& name, const std::string& a,
                                       const std::string& b, double bandwidth_bps,
                                       double latency_seconds, std::int64_t queue_bytes,
                                       double loss_rate) {
  return topology_.addLink(name, nodeByName(a), nodeByName(b), bandwidth_bps,
                           sim::fromSeconds(latency_seconds), queue_bytes, loss_rate);
}

VirtualGridConfig VirtualGridConfig::fromConfig(const util::Config& cfg) {
  VirtualGridConfig out;
  for (const auto* sec : cfg.sectionsOfType("physical")) {
    out.addPhysical(sec->name(), sec->getComputeRate("cpu"));
  }
  for (const auto* sec : cfg.sectionsOfType("host")) {
    out.addHost(sec->name(), sec->getString("ip", ""), sec->getComputeRate("cpu"),
                sec->getSize("memory"), sec->getString("map"));
  }
  for (const auto* sec : cfg.sectionsOfType("node")) {
    const std::string kind = util::toLower(sec->getString("kind", "router"));
    if (kind != "router") throw ConfigError("[node] sections must be routers");
    out.addRouter(sec->name());
  }
  for (const auto* sec : cfg.sectionsOfType("link")) {
    out.addLink(sec->name(), sec->getString("a"), sec->getString("b"),
                sec->getBandwidth("bandwidth"), sec->getTime("latency"),
                sec->has("queue") ? sec->getSize("queue") : 256 * 1024,
                sec->getDouble("loss", 0.0));
  }
  return out;
}

void VirtualGridConfig::toGis(gis::Directory& dir, const gis::Dn& base,
                              const std::string& config_name) const {
  for (const auto& host : mapper_.hosts()) {
    dir.upsert(gis::makeVirtualHostRecord(base, host, config_name));
  }
  for (int l = 0; l < topology_.linkCount(); ++l) {
    const net::Link& link = topology_.link(l);
    gis::Record rec = gis::makeVirtualNetworkRecord(
        base, link.name, config_name, "LAN", link.bandwidth_bps, sim::toSeconds(link.latency));
    // Extension by addition (paper §2.2.2): endpoints and queueing are extra
    // attributes on the standard network record.
    rec.add("nwEndpointA", topology_.node(link.a).name);
    rec.add("nwEndpointB", topology_.node(link.b).name);
    rec.add("nwQueueBytes", std::to_string(link.queue_bytes));
    dir.upsert(std::move(rec));
  }
}

SimulationRate SimulationRate::compute(const VirtualGridConfig& cfg) {
  SimulationRate rate;
  rate.max_feasible = std::numeric_limits<double>::infinity();
  for (std::size_t m = 0; m < cfg.physicalMachines().size(); ++m) {
    const double phys = cfg.physicalMachines()[m].cpu_ops, virt = cfg.virtualOps()[m];
    // A machine with no mapped virtual hosts imposes no constraint.
    const double sr = (virt > 0) ? phys / virt : std::numeric_limits<double>::infinity();
    rate.per_machine.push_back(sr);
    rate.max_feasible = std::min(rate.max_feasible, sr);
  }
  if (rate.per_machine.empty() || !std::isfinite(rate.max_feasible)) {
    throw ConfigError("simulation rate undefined: no virtual hosts mapped");
  }
  return rate;
}

}  // namespace mg::core
