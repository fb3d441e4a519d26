#include "core/microgrid_platform.h"

#include <algorithm>
#include <cmath>

#include "sim/sampler.h"
#include "util/log.h"
#include "util/strings.h"

namespace mg::core {
namespace {

/// Headroom below the maximum feasible rate, accounting for scheduler and
/// OS overhead on the physical machines.
constexpr double kUtilization = 0.9;

/// The simulation rate: the override when given, else the fastest rate
/// every physical machine sustains, with headroom and the slowdown applied.
double selectRate(const VirtualGridConfig& cfg, const MicroGridOptions& opts) {
  if (std::isnan(opts.rate_override)) throw ConfigError("simulation rate override is NaN");
  double rate = opts.rate_override;
  if (rate <= 0) rate = SimulationRate::compute(cfg).max_feasible * kUtilization / opts.slowdown;
  if (!std::isfinite(rate) || rate <= 0) {
    throw ConfigError(util::format("simulation rate %g is not finite and positive", rate));
  }
  return rate;
}

}  // namespace

MicroGridPlatform::MicroGridPlatform(const VirtualGridConfig& cfg, MicroGridOptions opts)
    : Platform(cfg, selectRate(cfg, opts)), opts_(opts) {
  net::NetworkOptions nopts;
  nopts.kind = opts_.netmodel;
  nopts.time_scale = vt_.kernelPerVirtual();
  nopts.seed = opts_.seed;
  nopts.incremental = opts_.flow_incremental;
  nopts.detail = opts_.netmodel_detail;
  attachNetwork(cfg, std::move(nopts));

  std::uint64_t seed = opts_.seed;
  std::vector<vos::CpuScheduler*> by_machine;  // in physicalMachines() order
  for (const auto& p : cfg.physicalMachines()) {
    auto& sched = schedulers_[p.name] = std::make_unique<vos::CpuScheduler>(
        sim_, p.cpu_ops, opts_.quantum, vos::CompetitionProfile::none(), ++seed);
    by_machine.push_back(sched.get());
  }
  for (Host& rt : hosts_) {
    const std::size_t m = cfg.physicalIndex(rt.info->physical_host);
    rt.sched = by_machine[m];
    rt.host_fraction = std::min(1.0, rate() * rt.info->cpu_ops / cfg.physicalMachines()[m].cpu_ops);
  }

  MG_LOG_INFO("core") << "MicroGrid rate " << rate() << " (quantum "
                      << sim::toSeconds(opts_.quantum) * 1e3 << " ms)";
}

MicroGridPlatform::~MicroGridPlatform() { shutdown(); }

void MicroGridPlatform::refraction(Host& rt) {
  if (rt.tasks.empty()) return;
  // "This CPU fraction is then divided across each process on a virtual
  // host" (paper §2.4.1). cpu_factor < 1 models a brownout.
  const double f = std::max(
      1e-9, rt.host_fraction * rt.cpu_factor / static_cast<double>(rt.tasks.size()));
  for (auto id : rt.tasks) rt.sched->setFraction(id, std::min(1.0, f));
}

void MicroGridPlatform::crashHost(const std::string& hostname) {
  Host& rt = host(hostname);
  if (!rt.alive) return;
  rt.alive = false;
  MG_LOG_INFO("core") << "crash " << hostname;
  // Close the host's open spans before killing anything: the dying processes'
  // ScopedSpan destructors only end still-open spans, so the `aborted` marks
  // set here survive the unwind.
  sim_.spans().abortTrack(hostname, "host_crash");
  // RSTs to peers are scheduled while the node is still up, so they escape
  // onto the wire before the blackhole closes behind them. Flow-mode
  // connections get the same dying gasp: every socket touching the node
  // resets immediately.
  if (rt.stack) rt.stack->abortAll("host " + hostname + " crashed");
  if (flow_table_) flow_table_->crashNode(rt.info->node);
  // Kill every process; each unwinds synchronously, releasing its memory
  // lease and scheduler slot. Finished (possibly reaped) ids are no-ops.
  std::vector<std::uint64_t> procs;
  procs.swap(rt.procs);
  for (std::uint64_t id : procs) sim_.killProcessById(id);
  net_->setNodeUp(rt.info->node, false);
  rt.stack.reset();  // detaches the node's transport dispatch
}

void MicroGridPlatform::restartHost(const std::string& hostname) {
  Host& rt = host(hostname);
  if (rt.alive) return;
  if (net_->carriesPackets()) rt.stack = std::make_unique<net::TcpStack>(*net_, rt.info->node);
  net_->setNodeUp(rt.info->node, true);
  rt.alive = true;
  MG_LOG_INFO("core") << "restart " << hostname;
}

bool MicroGridPlatform::hostAlive(const std::string& hostname) { return host(hostname).alive; }

void MicroGridPlatform::setHostCpuFactor(const std::string& hostname, double factor) {
  if (factor <= 0 || factor > 1.0) throw UsageError("cpu factor must be in (0, 1]");
  Host& rt = host(hostname);
  rt.cpu_factor = factor;
  refraction(rt);
}

void MicroGridPlatform::registerTelemetry(sim::TelemetrySampler& sampler) {
  sampler.registerKernelProbes();
  net_->registerTelemetry(sampler);
  // schedulers_ is name-ordered, so probe registration order (and with it
  // the recorded series set) is independent of construction order.
  for (auto& [name, sched] : schedulers_) {
    sched->registerTelemetry(sampler, name);
  }
}

void MicroGridPlatform::saveState(obs::StateWriter& w) const {
  w.key("sim");
  sim_.saveState(w);
  w.key("net");
  net_->saveState(w);
  for (const auto& [name, sched] : schedulers_) {
    w.key(name);
    sched->saveState(w);
  }
  // A host without a process yet has used none of its memory.
  w.u64("hosts", hosts_.size());
  for (const Host& rt : hosts_) {
    w.str("host", rt.info->hostname);
    w.boolean("alive", rt.alive);
    w.f64("cpu_factor", rt.cpu_factor);
    w.f64("host_fraction", rt.host_fraction);
    w.u64("tasks", rt.tasks.size());
    w.i64("mem_used", rt.mem ? rt.mem->used() : 0);
    if (rt.stack) rt.stack->saveState(w);
  }
}

std::size_t MicroGridPlatform::openTcpConnections() {
  std::size_t n = 0;
  for (const Host& rt : hosts_) {
    if (rt.stack) n += rt.stack->openConnections();
  }
  return n;
}

void MicroGridPlatform::computeFor(CpuSlot& slot, double ops) {
  Host& rt = slot.host;
  if (slot.task < 0) {
    // Lazily created: only CPU-using processes join the fraction division
    // (socket daemons and the like consume no modeled CPU).
    // Quantum spans land on the virtual host's track, not the process name.
    slot.task =
        rt.sched->addTask(slot.process, std::max(rt.host_fraction, 1e-6), rt.info->hostname);
    rt.tasks.push_back(slot.task);
    refraction(rt);
  }
  // `ops` execute on the physical CPU; the scheduler's fraction allocation
  // and the virtual-time rescaling together make the virtual host appear
  // to run them at its own speed.
  rt.sched->compute(slot.task, ops);
}

void MicroGridPlatform::releaseCpu(CpuSlot& slot) {
  if (slot.task < 0) return;
  Host& rt = slot.host;
  auto& ts = rt.tasks;
  ts.erase(std::remove(ts.begin(), ts.end(), slot.task), ts.end());
  rt.sched->removeTask(slot.task);
  refraction(rt);
}

}  // namespace mg::core
