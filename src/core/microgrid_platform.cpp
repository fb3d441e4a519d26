#include "core/microgrid_platform.h"

#include <algorithm>
#include <cmath>

#include "obs/sampler.h"
#include "sim/telemetry.h"
#include "util/log.h"
#include "util/strings.h"

namespace mg::core {
namespace {

/// Headroom below the maximum feasible rate, accounting for scheduler and
/// OS overhead on the physical machines.
constexpr double kUtilization = 0.9;

}  // namespace

// ---------------------------------------------------------------- sockets --

class MicroGridPlatform::MgSocket : public vos::StreamSocket {
 public:
  MgSocket(MicroGridPlatform& p, std::shared_ptr<net::TcpConnection> conn)
      : p_(p), conn_(std::move(conn)) {}

  void send(const void* data, std::size_t n) override { conn_->send(data, n); }
  std::size_t recv(void* buf, std::size_t max) override { return conn_->recv(buf, max); }
  void close() override { conn_->close(); }
  std::string peerHost() const override {
    return p_.mapper_.byNode(conn_->remoteNode()).hostname;
  }

 private:
  MicroGridPlatform& p_;
  std::shared_ptr<net::TcpConnection> conn_;
};

class MicroGridPlatform::MgListener : public vos::Listener {
 public:
  MgListener(MicroGridPlatform& p, std::shared_ptr<net::TcpListener> listener)
      : p_(p), listener_(std::move(listener)) {}

  std::shared_ptr<vos::StreamSocket> accept() override {
    return std::make_shared<MgSocket>(p_, listener_->accept());
  }
  std::shared_ptr<vos::StreamSocket> acceptFor(double virtual_seconds) override {
    auto conn = listener_->acceptFor(p_.vt_->toKernel(virtual_seconds));
    if (!conn) return nullptr;
    return std::make_shared<MgSocket>(p_, std::move(conn));
  }
  void close() override { listener_->close(); }

 private:
  MicroGridPlatform& p_;
  std::shared_ptr<net::TcpListener> listener_;
};

// Hybrid mode: a port must accept both escalated (TCP) and fluid
// connections. Both feed one unified backlog — the flow listener delivers
// straight into it, and a pump daemon drains the TCP listener's handshake
// output into it. Pure packet mode never comes through here, so its accept
// path (and event stream) is untouched.
class MicroGridPlatform::HybridListener : public vos::Listener {
 public:
  HybridListener(MicroGridPlatform& p, HostRt& rt, std::uint16_t port)
      : p_(p),
        unified_(std::make_shared<sim::Channel<std::shared_ptr<vos::StreamSocket>>>(p.sim_)) {
    tcp_ = rt.stack->tcp().listen(port);
    flow_ = p.flow_table_->listen(rt.info->node, port,
                                  [ch = unified_](std::shared_ptr<vos::StreamSocket> s) {
                                    if (!ch->closed()) ch->send(std::move(s));
                                  });
    // The pump owns shared refs so it can outlive this listener object
    // (processes are only reaped at kernel safe points).
    p.sim_.spawn("hybrid-accept-pump", [&p, tcp = tcp_, ch = unified_] {
      try {
        while (true) {
          auto conn = tcp->accept();
          if (!conn) break;
          ch->send(std::make_shared<MgSocket>(p, std::move(conn)));
        }
      } catch (const sim::ChannelClosed&) {
        // Listener or backlog closed: orderly pump shutdown.
      }
    });
  }

  ~HybridListener() override { close(); }

  std::shared_ptr<vos::StreamSocket> accept() override { return unified_->recv(); }

  std::shared_ptr<vos::StreamSocket> acceptFor(double virtual_seconds) override {
    auto v = unified_->recvFor(p_.vt_->toKernel(virtual_seconds));
    return v ? std::move(*v) : nullptr;
  }

  void close() override {
    tcp_->close();
    flow_->close();
    unified_->close();
  }

 private:
  MicroGridPlatform& p_;
  std::shared_ptr<net::TcpListener> tcp_;
  std::shared_ptr<FlowListener> flow_;
  std::shared_ptr<sim::Channel<std::shared_ptr<vos::StreamSocket>>> unified_;
};

// ---------------------------------------------------------------- context --

class MicroGridPlatform::MgContext : public vos::HostContext {
 public:
  MgContext(MicroGridPlatform& p, HostRt& rt, const std::string& name)
      : p_(p), rt_(rt), name_(name) {
    mem_proc_ = rt_.mem->registerProcess(name);
  }

  ~MgContext() override {
    rt_.mem->releaseProcess(mem_proc_);
    if (task_ >= 0) {
      auto& ts = rt_.tasks;
      ts.erase(std::remove(ts.begin(), ts.end(), task_), ts.end());
      rt_.sched->removeTask(task_);
      p_.refraction(rt_);
    }
  }

  const vos::VirtualHostInfo& host() const override { return *rt_.info; }

  double wallTime() const override { return p_.vt_->toVirtualSeconds(p_.sim_.now()); }

  void sleep(double s) override { p_.sim_.delay(p_.vt_->toKernel(s)); }

  void compute(double ops) override {
    if (ops < 0) throw mg::UsageError("negative compute");
    ensureTask();
    // `ops` execute on the physical CPU; the scheduler's fraction allocation
    // and the virtual-time rescaling together make the virtual host appear
    // to run them at its own speed.
    rt_.sched->compute(task_, ops);
  }

  void allocateMemory(std::int64_t bytes) override { rt_.mem->allocate(mem_proc_, bytes); }
  void freeMemory(std::int64_t bytes) override { rt_.mem->free(mem_proc_, bytes); }

  const vos::HostMapper& mapper() const override { return p_.mapper_; }

  std::shared_ptr<vos::Listener> listen(std::uint16_t port) override {
    switch (p_.opts_.netmodel) {
      case net::NetModelKind::Packet:
        return std::make_shared<MgListener>(p_, rt_.stack->tcp().listen(port));
      case net::NetModelKind::Flow:
        return p_.flow_table_->listen(rt_.info->node, port);
      case net::NetModelKind::Hybrid:
        return std::make_shared<HybridListener>(p_, rt_, port);
    }
    throw UsageError("unknown netmodel");
  }

  std::shared_ptr<vos::StreamSocket> connect(const std::string& host_or_ip,
                                             std::uint16_t port) override {
    const vos::VirtualHostInfo& target = p_.mapper_.resolve(host_or_ip);
    // The connector decides the path; hybrid escalation is symmetric in
    // (src, dst), so both ends of a detail conversation agree on it.
    if (p_.opts_.netmodel == net::NetModelKind::Packet ||
        (p_.opts_.netmodel == net::NetModelKind::Hybrid &&
         p_.net_->escalate(rt_.info->node, target.node, port))) {
      return std::make_shared<MgSocket>(p_, rt_.stack->tcp().connect(target.node, port));
    }
    return p_.flow_table_->connect(rt_.info->node, target.node, port);
  }

  sim::Process& spawnProcess(const std::string& name,
                             std::function<void(vos::HostContext&)> body) override {
    return p_.spawnOn(rt_.info->hostname, name, std::move(body));
  }

  sim::Simulator& simulator() override { return p_.sim_; }

 private:
  void ensureTask() {
    if (task_ >= 0) return;
    // Lazily created: only CPU-using processes join the fraction division
    // (socket daemons and the like consume no modeled CPU).
    // Quantum spans land on the virtual host's track, not the process name.
    task_ = rt_.sched->addTask(name_, std::max(rt_.host_fraction, 1e-6), rt_.info->hostname);
    rt_.tasks.push_back(task_);
    p_.refraction(rt_);
  }

  MicroGridPlatform& p_;
  HostRt& rt_;
  std::string name_;
  vos::MemoryManager::ProcessId mem_proc_;
  vos::CpuScheduler::TaskId task_ = -1;
};

// --------------------------------------------------------------- platform --

MicroGridPlatform::MicroGridPlatform(const VirtualGridConfig& cfg, MicroGridOptions opts)
    : mapper_(cfg.mapper()), physicals_(cfg.physicalMachines()), opts_(opts) {
  if (std::isnan(opts_.rate_override)) throw ConfigError("simulation rate override is NaN");
  if (opts_.rate_override > 0) {
    rate_ = opts_.rate_override;
  } else {
    const SimulationRate sr = SimulationRate::compute(cfg);
    rate_ = sr.max_feasible * kUtilization / opts_.slowdown;
  }
  if (!std::isfinite(rate_) || rate_ <= 0) {
    throw ConfigError(util::format("simulation rate %g is not finite and positive", rate_));
  }
  vt_ = std::make_unique<vos::VirtualTime>(rate_);

  net::PacketNetworkOptions nopts;
  nopts.time_scale = vt_->kernelPerVirtual();
  nopts.seed = opts_.seed;
  switch (opts_.netmodel) {
    case net::NetModelKind::Packet: {
      auto pn = std::make_unique<net::PacketNetwork>(sim_, cfg.topology(), nopts);
      packet_ = pn.get();
      net_ = std::move(pn);
      break;
    }
    case net::NetModelKind::Flow: {
      net::FlowNetworkOptions fopts = opts_.flow;
      fopts.time_scale = vt_->kernelPerVirtual();
      net_ = std::make_unique<net::FlowNetwork>(sim_, cfg.topology(), fopts);
      break;
    }
    case net::NetModelKind::Hybrid: {
      net::HybridNetworkOptions hopts;
      hopts.packet = nopts;
      hopts.flow = opts_.flow;
      hopts.detail = opts_.netmodel_detail;
      auto hn = std::make_unique<net::HybridNetwork>(sim_, cfg.topology(), hopts);
      packet_ = hn.get();
      net_ = std::move(hn);
      break;
    }
  }
  if (opts_.netmodel != net::NetModelKind::Packet) {
    flow_table_ = std::make_unique<FlowEndpointTable>(
        *net_, [this](net::NodeId n) { return mapper_.byNode(n).hostname; },
        [this](double s) { return vt_->toKernel(s); });
  }

  std::uint64_t seed = opts_.seed;
  for (const auto& p : physicals_) {
    schedulers_.emplace(p.name, std::make_unique<vos::CpuScheduler>(
                                    sim_, p.cpu_ops, opts_.quantum,
                                    vos::CompetitionProfile::none(), ++seed));
  }

  for (const auto& host : mapper_.hosts()) {
    HostRt rt;
    rt.info = &host;
    // Transport stacks exist only where packets can arrive; pure flow mode
    // has no per-segment machinery at all.
    if (packet_ != nullptr) rt.stack = std::make_unique<net::HostStack>(*net_, host.node);
    rt.mem = std::make_unique<vos::MemoryManager>(host.memory_bytes, &sim_.metrics());
    rt.sched = schedulers_.at(host.physical_host).get();
    const double phys_ops = cfg.physical(host.physical_host).cpu_ops;
    rt.host_fraction = std::min(1.0, rate_ * host.cpu_ops / phys_ops);
    hosts_.emplace(host.hostname, std::move(rt));
  }

  MG_LOG_INFO("core") << "MicroGrid rate " << rate_ << " (quantum "
                      << sim::toSeconds(opts_.quantum) * 1e3 << " ms)";
}

MicroGridPlatform::~MicroGridPlatform() { sim_.shutdown(); }

MicroGridPlatform::HostRt& MicroGridPlatform::hostRt(const std::string& hostname) {
  auto it = hosts_.find(hostname);
  if (it == hosts_.end()) throw vos::UnknownHost(hostname);
  return it->second;
}

void MicroGridPlatform::refraction(HostRt& rt) {
  if (rt.tasks.empty()) return;
  // "This CPU fraction is then divided across each process on a virtual
  // host" (paper §2.4.1). cpu_factor < 1 models a brownout.
  const double f = std::max(
      1e-9, rt.host_fraction * rt.cpu_factor / static_cast<double>(rt.tasks.size()));
  for (auto id : rt.tasks) rt.sched->setFraction(id, std::min(1.0, f));
}

void MicroGridPlatform::crashHost(const std::string& hostname) {
  HostRt& rt = hostRt(hostname);
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
  if (rt.stack) rt.stack->tcp().abortAll("host " + hostname + " crashed");
  if (flow_table_) flow_table_->crashNode(rt.info->node);
  // Kill every process; each unwinds synchronously, releasing its memory
  // lease and scheduler slot. Finished (possibly reaped) ids are no-ops.
  std::vector<std::uint64_t> procs;
  procs.swap(rt.procs);
  for (std::uint64_t id : procs) sim_.killProcessById(id);
  net_->setNodeUp(rt.info->node, false);
  if (rt.stack) {
    net_->attachHost(rt.info->node, nullptr);  // the stack is about to die
    rt.stack.reset();
  }
}

void MicroGridPlatform::restartHost(const std::string& hostname) {
  HostRt& rt = hostRt(hostname);
  if (rt.alive) return;
  if (packet_ != nullptr) rt.stack = std::make_unique<net::HostStack>(*net_, rt.info->node);
  net_->setNodeUp(rt.info->node, true);
  rt.alive = true;
  MG_LOG_INFO("core") << "restart " << hostname;
}

bool MicroGridPlatform::hostAlive(const std::string& hostname) { return hostRt(hostname).alive; }

void MicroGridPlatform::setHostCpuFactor(const std::string& hostname, double factor) {
  if (factor <= 0 || factor > 1.0) throw UsageError("cpu factor must be in (0, 1]");
  HostRt& rt = hostRt(hostname);
  rt.cpu_factor = factor;
  refraction(rt);
}

net::PacketNetwork& MicroGridPlatform::packetNetwork() {
  if (packet_ == nullptr) {
    throw UsageError("no packet machinery under --netmodel=" +
                     std::string(net::netModelKindName(opts_.netmodel)));
  }
  return *packet_;
}

vos::CpuScheduler& MicroGridPlatform::schedulerFor(const std::string& physical_name) {
  return *schedulers_.at(physical_name);
}

void MicroGridPlatform::registerTelemetry(obs::TelemetrySampler& sampler) {
  sim::registerKernelProbes(sampler, sim_);
  net_->registerTelemetry(sampler);
  // schedulers_ is name-ordered, so probe registration order (and with it
  // the recorded series set) is independent of construction order.
  for (auto& [name, sched] : schedulers_) {
    sched->registerTelemetry(sampler, name);
  }
  sampler.addLevel("grid.batch.depth", [this](std::int64_t) {
    return sim_.metrics().gaugeValue("grid.batch.depth");
  });
}

void MicroGridPlatform::registerStateCapture(obs::StateCaptureRegistry& reg) {
  reg.add("sim", [this](obs::StateWriter& w) { sim_.saveState(w); });
  // The metrics snapshot is already canonical (sorted names, round-trip
  // double formatting), so folding its JSON form keeps every layer's
  // counters in the digest without a second enumeration surface.
  reg.add("obs.metrics", [this](obs::StateWriter& w) {
    w.str("json", sim_.metrics().snapshotJson());
  });
  reg.add("net", [this](obs::StateWriter& w) { net_->saveState(w); });
  for (auto& [name, sched] : schedulers_) {
    reg.add("vos.sched." + name,
            [s = sched.get()](obs::StateWriter& w) { s->saveState(w); });
  }
  reg.add("core.hosts", [this](obs::StateWriter& w) {
    w.u64("hosts", hosts_.size());
    for (const auto& [name, rt] : hosts_) {
      w.str("host", name);
      w.boolean("alive", rt.alive);
      w.f64("cpu_factor", rt.cpu_factor);
      w.f64("host_fraction", rt.host_fraction);
      w.u64("tasks", rt.tasks.size());
      if (rt.mem) {
        w.i64("mem_used", rt.mem->used());
      }
      if (rt.stack) rt.stack->tcp().saveState(w);
    }
  });
}

std::size_t MicroGridPlatform::openTcpConnections() {
  std::size_t n = 0;
  for (const auto& [name, rt] : hosts_) {
    if (rt.stack) n += rt.stack->tcp().openConnections();
  }
  return n;
}

sim::Process& MicroGridPlatform::spawnOn(const std::string& host_or_ip,
                                         const std::string& process_name,
                                         std::function<void(vos::HostContext&)> body) {
  const vos::VirtualHostInfo& info = mapper_.resolve(host_or_ip);
  HostRt& host = hostRt(info.hostname);
  if (!host.alive) throw mg::Error("cannot spawn on crashed host " + info.hostname);
  sim::Process& p =
      sim_.spawn(process_name, [this, hostname = info.hostname, process_name, body = std::move(body)] {
        HostRt& rt = hostRt(hostname);
        MgContext ctx(*this, rt, process_name);
        body(ctx);
      });
  host.procs.push_back(p.id());
  return p;
}

}  // namespace mg::core
