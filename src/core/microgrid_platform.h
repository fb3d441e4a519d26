// The MicroGrid emulation platform.
//
// Assembles the paper's three mechanisms: virtualization (HostContext over
// the mapping table), global coordination (SimulationRate + VirtualTime),
// and resource simulation (per-physical-machine CPU schedulers, per-host
// memory managers, and the packet-level network running at 1/rate).
//
// The kernel clock is the *emulation wall clock* (the physical machines'
// timeline); every virtual-time observable is rescaled by the simulation
// rate, so running the emulation slower (Fig 15) leaves virtual results
// unchanged up to quantum granularity.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "core/flow_socket.h"
#include "core/platform.h"
#include "core/virtual_grid.h"
#include "net/host_stack.h"
#include "net/hybrid_network.h"
#include "net/packet_network.h"
#include "vos/cpu_scheduler.h"
#include "vos/memory.h"
#include "vos/virtual_time.h"

namespace mg::core {

struct MicroGridOptions {
  /// Scheduler quantum (paper default: 10 ms Linux timeslice; Fig 11 sweeps).
  sim::SimTime quantum = 10 * sim::kMillisecond;
  /// Run the emulation N times slower than feasible (Fig 15's knob).
  double slowdown = 1.0;
  /// When positive, use exactly this simulation rate (virtual seconds per
  /// emulation second) instead of deriving one. NaN is rejected.
  double rate_override = 0;
  /// Which model backs the virtual wire (DESIGN.md §8): full packet
  /// simulation, max-min fair fluid flows, or hybrid (fluid by default,
  /// packet detail for traffic matching `netmodel_detail`).
  net::NetModelKind netmodel = net::NetModelKind::Packet;
  /// Hybrid escalation patterns (see net::DetailSelector).
  std::vector<std::string> netmodel_detail;
  /// Fluid-path tuning for flow/hybrid mode; its time_scale is derived from
  /// the simulation rate, not taken from here.
  net::FlowNetworkOptions flow;
  std::uint64_t seed = 42;
};

class MicroGridPlatform : public Platform {
 public:
  explicit MicroGridPlatform(const VirtualGridConfig& cfg, MicroGridOptions opts = {});
  ~MicroGridPlatform() override;

  sim::Simulator& simulator() override { return sim_; }
  const vos::HostMapper& mapper() const override { return mapper_; }
  double virtualNow() const override { return vt_->toVirtualSeconds(sim_.now()); }

  sim::Process& spawnOn(const std::string& host_or_ip, const std::string& process_name,
                        std::function<void(vos::HostContext&)> body) override;

  /// The chosen simulation rate (virtual seconds per emulation second).
  double rate() const { return rate_; }
  const vos::VirtualTime& virtualTime() const { return *vt_; }
  /// The network model behind the virtual wire (packet, flow, or hybrid).
  net::NetworkModel& network() { return *net_; }
  /// The packet machinery, when the active model has one (packet or hybrid
  /// mode); throws UsageError under --netmodel=flow.
  net::PacketNetwork& packetNetwork();
  net::NetModelKind netModel() const { return opts_.netmodel; }
  vos::CpuScheduler& schedulerFor(const std::string& physical_name);

  /// Emulation wall-clock seconds consumed so far (the cost side of the
  /// Fig 15 trade-off).
  double emulationNow() const { return sim::toSeconds(sim_.now()); }

  /// Register the platform's full time-resolved probe set (DESIGN.md §10)
  /// on a sampler: kernel rates (sim.*), the network model's per-link and
  /// throughput series (net.*), every physical machine's CPU scheduler
  /// (vos.cpu.util.<machine>, vos.runq.<machine>), and the batch jobmanager
  /// depth (grid.batch.depth) when one is active. Call after construction,
  /// before sampler.start().
  void registerTelemetry(obs::TelemetrySampler& sampler);

  /// Register the platform's full state-capture set (DESIGN.md §11) on
  /// `reg`: the kernel's clock/heap/process table ("sim"), the metrics
  /// registry snapshot ("obs.metrics"), the network model with its queues,
  /// RNG stream and flows ("net"), every physical machine's CPU scheduler
  /// ("vos.sched.<machine>"), and every virtual host's runtime — aliveness,
  /// CPU factor, memory accounting, TCP endpoint table ("core.hosts").
  /// The snapshot/explorer machinery folds these into one canonical digest
  /// per decision point. Call after construction; read-only at capture time.
  void registerStateCapture(obs::StateCaptureRegistry& reg);

  /// TCP connections still open (neither fully closed nor reset), summed
  /// over every live host stack. A crashed host's stack died with its
  /// connections (they were reset), so it contributes zero — this is the
  /// "all sockets closed or reset" invariant surface.
  std::size_t openTcpConnections();

  // --- fault-injection surface (src/fault drives these) ---

  /// Crash a virtual host: RST every TCP peer (the dying kernel's last
  /// gasp), kill every process on the host (each unwinds, releasing memory
  /// and scheduler slots in O(active processes)), then blackhole the node.
  /// Idempotent.
  void crashHost(const std::string& hostname);

  /// Bring a crashed host back with a cold stack: no processes, no
  /// listeners, no directory presence — those are the launcher's job.
  /// Idempotent.
  void restartHost(const std::string& hostname);

  bool hostAlive(const std::string& hostname);

  /// CPU brownout: scale the host's CPU allocation by `factor` in (0, 1].
  /// 1.0 restores full speed.
  void setHostCpuFactor(const std::string& hostname, double factor);

 private:
  friend class MgContext;
  class MgContext;
  class MgSocket;
  class MgListener;
  class HybridListener;

  struct HostRt {
    const vos::VirtualHostInfo* info = nullptr;
    std::unique_ptr<net::HostStack> stack;
    std::unique_ptr<vos::MemoryManager> mem;
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

  HostRt& hostRt(const std::string& hostname);
  void refraction(HostRt& rt);

  sim::Simulator sim_;
  vos::HostMapper mapper_;
  std::vector<PhysicalMachine> physicals_;
  MicroGridOptions opts_;
  double rate_ = 0;
  std::unique_ptr<vos::VirtualTime> vt_;
  std::unique_ptr<net::NetworkModel> net_;
  net::PacketNetwork* packet_ = nullptr;  // non-null in packet/hybrid mode
  std::unique_ptr<FlowEndpointTable> flow_table_;  // non-null in flow/hybrid mode
  std::map<std::string, std::unique_ptr<vos::CpuScheduler>> schedulers_;
  std::map<std::string, HostRt> hosts_;
};

}  // namespace mg::core
