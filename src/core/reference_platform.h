// The "physical grid" reference platform.
//
// Plays the role of the real testbed in the paper's validation experiments:
// compute on a host with speed V takes exactly ops/V seconds, and messages
// travel through the max-min fair flow-level network model — the same
// FlowNetwork/FlowSocket stack MicroGridPlatform uses under --netmodel=flow,
// so there is exactly one fluid wiring in the tree. Virtual time equals
// kernel time (rate 1). See DESIGN.md §2 for why this substitution preserves
// the comparisons.
#pragma once

#include <map>
#include <memory>

#include "core/flow_socket.h"
#include "core/platform.h"
#include "core/virtual_grid.h"
#include "net/flow_network.h"
#include "vos/memory.h"

namespace mg::core {

class ReferencePlatform : public Platform {
 public:
  explicit ReferencePlatform(const VirtualGridConfig& cfg);
  ~ReferencePlatform() override;

  sim::Simulator& simulator() override { return sim_; }
  const vos::HostMapper& mapper() const override { return mapper_; }
  double virtualNow() const override { return sim::toSeconds(sim_.now()); }

  sim::Process& spawnOn(const std::string& host_or_ip, const std::string& process_name,
                        std::function<void(vos::HostContext&)> body) override;

  net::FlowNetwork& network() { return *flow_; }

 private:
  friend class RefContext;
  class RefContext;

  vos::MemoryManager& memoryFor(const std::string& hostname);

  sim::Simulator sim_;
  vos::HostMapper mapper_;
  std::unique_ptr<net::FlowNetwork> flow_;
  std::unique_ptr<FlowEndpointTable> table_;
  std::map<std::string, std::unique_ptr<vos::MemoryManager>> memory_;
};

}  // namespace mg::core
