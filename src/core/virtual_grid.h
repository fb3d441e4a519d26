// The virtual grid description: virtual hosts (with identities, CPU speeds,
// memory, physical placement), the virtual network topology, and the
// physical machines the grid is emulated on.
//
// Config file form:
//
//   [physical phys0]
//   cpu = 533MHz
//
//   [host vm0.ucsd.edu]
//   ip = 1.11.11.1
//   cpu = 533MHz
//   memory = 1GB
//   map = phys0
//
//   [node switch0]
//   kind = router
//
//   [link l0]
//   a = vm0.ucsd.edu
//   b = switch0
//   bandwidth = 100Mbps
//   latency = 0.1ms
//
// toGis() publishes the description as GIS records in the Fig 3 schema — the
// paper's MicroGrid builds the NSE input from the virtual network
// information in the GIS. Nothing reads a grid back from those records; the
// readback helpers in gis/schema.h serve the tests.
#pragma once

#include <string>
#include <vector>

#include "gis/directory.h"
#include "net/topology.h"
#include "util/config.h"
#include "util/name_index.h"
#include "vos/virtual_host.h"

namespace mg::core {

struct PhysicalMachine {
  std::string name;
  double cpu_ops = 0;
};

class VirtualGridConfig {
 public:
  /// Add a physical machine hosting virtual resources.
  void addPhysical(const std::string& name, double cpu_ops);

  /// Add a virtual host (creates its topology node). `physical` must name a
  /// machine added with addPhysical.
  net::NodeId addHost(const std::string& hostname, const std::string& ip, double cpu_ops,
                      std::int64_t memory_bytes, const std::string& physical);

  /// Add a router/switch node to the virtual topology.
  net::NodeId addRouter(const std::string& name);

  /// Connect two named nodes (virtual hosts or routers).
  net::LinkId addLink(const std::string& name, const std::string& a, const std::string& b,
                      double bandwidth_bps, double latency_seconds,
                      std::int64_t queue_bytes = 256 * 1024, double loss_rate = 0.0);

  const vos::HostMapper& mapper() const { return mapper_; }
  const net::Topology& topology() const { return topology_; }
  const std::vector<PhysicalMachine>& physicalMachines() const { return physical_; }
  /// Position of a machine in physicalMachines(); throws ConfigError.
  std::size_t physicalIndex(const std::string& name) const;

  /// Parse the config-file form above.
  static VirtualGridConfig fromConfig(const util::Config& cfg);

  /// Emit Fig 3 virtual host / network records grouped under `config_name`.
  void toGis(gis::Directory& dir, const gis::Dn& base, const std::string& config_name) const;

  /// Per machine, in physicalMachines() order: its mapped virtual CPU speeds' sum.
  const std::vector<double>& virtualOps() const { return virtual_ops_; }

 private:
  net::NodeId nodeByName(const std::string& name) const;
  // physical_index_'s view of the names it indexes.
  auto machineName() const {
    return [this](std::int32_t m) -> const std::string& {
      return physical_[static_cast<std::size_t>(m)].name;
    };
  }

  vos::HostMapper mapper_;
  net::Topology topology_;
  std::vector<PhysicalMachine> physical_;
  // Beside physical_: the running sum of virtual CPU speeds mapped onto each
  // machine, and the name index addHost resolves its machine through once.
  std::vector<double> virtual_ops_;
  util::NameIndex physical_index_;
};

/// Simulation-rate calculation (paper §2.3). SR_r = physical spec / virtual
/// spec; the feasible emulation rate is bounded by the most constrained
/// resource (the minimum SR; see DESIGN.md §1 on the paper's min/max
/// wording).
struct SimulationRate {
  /// Per-physical-machine SR values, in machine order.
  std::vector<double> per_machine;
  /// min over machines; virtual seconds per emulation wall-clock second.
  double max_feasible = 0;

  static SimulationRate compute(const VirtualGridConfig& cfg);
};

}  // namespace mg::core
