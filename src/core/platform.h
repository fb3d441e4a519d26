// The shared host runtime both platforms run on.
//
// Two platforms exist (DESIGN.md §2):
//  * ReferencePlatform  — the "physical grid" model: exact compute timing
//    and a flow-level network at rate 1; plays the role of the real
//    clusters the paper validated against.
//  * MicroGridPlatform  — the emulated Grid: quantum CPU scheduler, packet-
//    level network, and virtual-time rescaling.
//
// They differ only in their resource models. Platform owns everything else,
// once: the simulator, the host mapper, the virtual clock, the network with
// its per-host transport stacks and flow-socket table, the per-host record,
// spawnOn, the one vos::HostContext implementation and the one listener. A
// subclass picks the simulation rate and the network's options, and
// supplies the CPU rule (computeFor/releaseCpu) — the only seam between the
// two.
//
// Applications only ever see vos::HostContext, so the same program runs on
// both — the reproduction's analogue of "unmodified Globus applications".
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/flow_socket.h"
#include "core/virtual_grid.h"
#include "net/network.h"
#include "net/tcp.h"
#include "sim/simulator.h"
#include "vos/context.h"
#include "vos/cpu_scheduler.h"
#include "vos/memory.h"
#include "vos/virtual_host.h"
#include "vos/virtual_time.h"

namespace mg::core {

class Platform {
 public:
  virtual ~Platform() = default;

  sim::Simulator& simulator() { return sim_; }
  const vos::HostMapper& mapper() const { return mapper_; }
  /// The network behind the virtual wire (packet, flow, or hybrid mode).
  net::Network& network() { return *net_; }

  /// Start a process on the named virtual host (hostname or virtual IP).
  /// The body receives that process's HostContext. Returns the simulator
  /// process so owners can killProcess() stragglers (fault teardown).
  sim::Process& spawnOn(const std::string& host_or_ip, const std::string& process_name,
                        std::function<void(vos::HostContext&)> body);

  /// Current virtual time in seconds.
  double virtualNow() const { return vt_.toVirtualSeconds(sim_.now()); }

  /// Run the simulation until no work remains (daemons stay suspended);
  /// returns the final virtual time in seconds.
  double run() {
    simulator().run();
    return virtualNow();
  }

  /// Tear down all processes (daemons included). Every concrete platform
  /// calls this first in its destructor, so processes unwind — and release
  /// their CPU slots — while the subclass's CPU model is still alive.
  void shutdown() { simulator().shutdown(); }

 protected:
  /// The runtime of one virtual host. The CPU-model fields are the
  /// MicroGrid rule's state (its scheduler slot and fraction split); the
  /// exact rule leaves them at their defaults.
  struct Host {
    const vos::VirtualHostInfo* info = nullptr;
    std::unique_ptr<net::TcpStack> stack;  // where packets can arrive
    std::unique_ptr<vos::MemoryManager> mem;  // made when its first process starts
    vos::CpuScheduler* sched = nullptr;
    double host_fraction = 0;  // of the physical CPU, for all its processes
    double cpu_factor = 1.0;   // brownout multiplier on host_fraction
    bool alive = true;
    std::vector<vos::CpuScheduler::TaskId> tasks;  // live CPU-using processes
    // Every process ever spawned on this host, by id. Ids (not Process*)
    // because the kernel reaps finished Process objects at safe points;
    // killProcessById is a no-op for finished or reaped ids, so stale
    // entries are harmless.
    std::vector<std::uint64_t> procs;
  };

  /// One process's CPU state, owned by its HostContext.
  struct CpuSlot {
    Host& host;
    std::string process;
    vos::CpuScheduler::TaskId task = -1;  // the MicroGrid rule's scheduler task
  };

  /// `rate` is virtual seconds per kernel second (1 for the reference).
  Platform(const VirtualGridConfig& cfg, double rate);

  /// Build the network and the per-host records: transport stacks when the
  /// network carries packets, and a flow-socket table when it has a fluid
  /// engine. Call once, from the subclass constructor.
  void attachNetwork(const VirtualGridConfig& cfg, net::NetworkOptions opts);

  /// The CPU rule: block the calling process while it executes `ops`
  /// operations (ops >= 0).
  virtual void computeFor(CpuSlot& slot, double ops) = 0;
  /// Give back what computeFor took; runs as the process's context unwinds.
  virtual void releaseCpu(CpuSlot& slot) { (void)slot; }

  /// The runtime of a hostname (a virtual IP is not one); throws UnknownHost.
  Host& host(const std::string& hostname);

  sim::Simulator sim_;
  vos::HostMapper mapper_;
  vos::VirtualTime vt_;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<FlowEndpointTable> flow_table_;  // non-null in flow/hybrid mode
  std::vector<Host> hosts_;  // in mapper order: hosts_[mapper_.indexOf(name)]
  vos::MemoryManager::Instruments mem_metrics_ =
      vos::MemoryManager::Instruments::in(sim_.metrics());

 private:
  class Context;
  class MgSocket;
  class HostListener;
};

}  // namespace mg::core
