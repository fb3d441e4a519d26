#include "core/platform.h"

#include "sim/channel.h"

namespace mg::core {

// ---------------------------------------------------------------- sockets --

class Platform::MgSocket : public vos::StreamSocket {
 public:
  MgSocket(Platform& p, std::shared_ptr<net::TcpConnection> conn)
      : p_(p), conn_(std::move(conn)) {}

  void send(const void* data, std::size_t n) override { conn_->send(data, n); }
  std::size_t recv(void* buf, std::size_t max) override { return conn_->recv(buf, max); }
  void close() override { conn_->close(); }
  std::string peerHost() const override {
    return p_.mapper_.byNode(conn_->remoteNode()).hostname;
  }

 private:
  Platform& p_;
  std::shared_ptr<net::TcpConnection> conn_;
};

// The one listener, whatever the mode: it owns the backlog, and each
// transport that can carry a connection to this port (TCP when the network
// carries packets, flow sockets when it has a fluid engine) binds the port
// with an accept sink that feeds it. A transport closing its binding (a
// host crash) closes the backlog, so blocked accepters wake as they would on
// any closed listener.
class Platform::HostListener : public vos::Listener {
 public:
  HostListener(Platform& p, Host& rt, std::uint16_t port)
      : p_(p), backlog_(std::make_shared<Backlog>(p.sim_)) {
    FlowEndpointTable::AcceptSink feed = [ch = backlog_, &spans = p.sim_.spans()](
                                             std::shared_ptr<vos::StreamSocket> s) {
      if (s) {
        s->cause = spans.current();
        ch->trySend(std::move(s));
      } else {
        ch->close();
      }
    };
    if (rt.stack) {
      tcp_ = rt.stack->listen(port, [&p, feed](std::shared_ptr<net::TcpConnection> c) {
        feed(c ? std::make_shared<MgSocket>(p, std::move(c)) : nullptr);
      });
    }
    if (p.flow_table_) flow_ = p.flow_table_->listen(rt.info->node, port, std::move(feed));
  }

  ~HostListener() override { close(); }

  std::shared_ptr<vos::StreamSocket> accept() override { return backlog_->recv(); }

  std::shared_ptr<vos::StreamSocket> acceptFor(double virtual_seconds) override {
    auto v = backlog_->recvFor(p_.vt_.toKernel(virtual_seconds));
    return v ? std::move(*v) : nullptr;
  }

  void close() override {
    if (tcp_) tcp_->close();
    if (flow_) flow_->close();
    backlog_->close();
  }

 private:
  using Backlog = sim::Channel<std::shared_ptr<vos::StreamSocket>>;

  Platform& p_;
  // Shared with the sinks, which the transports may call after this
  // listener is gone (they hold the sink until their binding closes).
  std::shared_ptr<Backlog> backlog_;
  std::shared_ptr<net::TcpListener> tcp_;
  std::shared_ptr<FlowListener> flow_;
};

// ---------------------------------------------------------------- context --

class Platform::Context : public vos::HostContext {
 public:
  Context(Platform& p, Host& rt, const std::string& name) : p_(p), rt_(rt), cpu_{rt, name} {
    if (!rt_.mem) {
      rt_.mem = std::make_unique<vos::MemoryManager>(rt_.info->memory_bytes, p_.mem_metrics_);
    }
    mem_proc_ = rt_.mem->registerProcess(name);
  }

  ~Context() override {
    rt_.mem->releaseProcess(mem_proc_);
    p_.releaseCpu(cpu_);
  }

  const vos::VirtualHostInfo& host() const override { return *rt_.info; }

  double wallTime() const override { return p_.vt_.toVirtualSeconds(p_.sim_.now()); }

  void sleep(double s) override { p_.sim_.delay(p_.vt_.toKernel(s)); }

  void compute(double ops) override {
    if (ops < 0) throw mg::UsageError("negative compute");
    p_.computeFor(cpu_, ops);
  }

  void allocateMemory(std::int64_t bytes) override { rt_.mem->allocate(mem_proc_, bytes); }
  void freeMemory(std::int64_t bytes) override { rt_.mem->free(mem_proc_, bytes); }

  const vos::HostMapper& mapper() const override { return p_.mapper_; }

  std::shared_ptr<vos::Listener> listen(std::uint16_t port) override {
    return std::make_shared<HostListener>(p_, rt_, port);
  }

  std::shared_ptr<vos::StreamSocket> connect(const std::string& host_or_ip,
                                             std::uint16_t port) override {
    const vos::VirtualHostInfo& target = p_.mapper_.resolve(host_or_ip);
    // The connector decides the path through the network, once for the
    // whole connection: packet always escalates, flow never, hybrid per its
    // selector. An escalated connection is TCP over packets in both
    // directions (the reply segments to this end's ephemeral port included);
    // any other is a flow socket in both directions.
    if (rt_.stack && p_.net_->escalate(rt_.info->node, target.node, port)) {
      return std::make_shared<MgSocket>(p_, rt_.stack->connect(target.node, port));
    }
    return p_.flow_table_->connect(rt_.info->node, target.node, port);
  }

  sim::Process& spawnProcess(const std::string& name,
                             std::function<void(vos::HostContext&)> body) override {
    return p_.spawnOn(rt_.info->hostname, name, std::move(body));
  }

  sim::Simulator& simulator() override { return p_.sim_; }

 private:
  Platform& p_;
  Host& rt_;
  CpuSlot cpu_;
  vos::MemoryManager::ProcessId mem_proc_;
};

// --------------------------------------------------------------- platform --

Platform::Platform(const VirtualGridConfig& cfg, double rate)
    : mapper_(cfg.mapper()), vt_(rate) {}

void Platform::attachNetwork(const VirtualGridConfig& cfg, net::NetworkOptions opts) {
  net_ = std::make_unique<net::Network>(sim_, cfg.topology(), std::move(opts));
  if (net_->flows() != nullptr) {
    flow_table_ = std::make_unique<FlowEndpointTable>(
        *net_, [this](net::NodeId n) { return mapper_.byNode(n).hostname; });
  }
  hosts_.resize(mapper_.hosts().size());
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    const vos::VirtualHostInfo& info = mapper_.hosts()[i];
    hosts_[i].info = &info;
    // Transport stacks exist only where packets can arrive; pure flow mode
    // has no per-segment machinery at all.
    if (net_->carriesPackets()) hosts_[i].stack = std::make_unique<net::TcpStack>(*net_, info.node);
  }
}

Platform::Host& Platform::host(const std::string& hostname) {
  Host& h = hosts_[mapper_.indexOf(hostname)];
  if (h.info->hostname != hostname) throw vos::UnknownHost(hostname);
  return h;
}

sim::Process& Platform::spawnOn(const std::string& host_or_ip, const std::string& process_name,
                                std::function<void(vos::HostContext&)> body) {
  Host& h = hosts_[mapper_.indexOf(host_or_ip)];
  if (!h.alive) throw mg::Error("cannot spawn on crashed host " + h.info->hostname);
  // hosts_ never reallocates after attachNetwork, so the body keeps &h.
  sim::Process& p = sim_.spawn(process_name, [this, &h, process_name, body = std::move(body)] {
    Context ctx(*this, h, process_name);
    body(ctx);
  });
  h.procs.push_back(p.id());
  return p;
}

}  // namespace mg::core
