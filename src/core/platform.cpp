#include "core/platform.h"

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

class Platform::MgListener : public vos::Listener {
 public:
  MgListener(Platform& p, std::shared_ptr<net::TcpListener> listener)
      : p_(p), listener_(std::move(listener)) {}

  std::shared_ptr<vos::StreamSocket> accept() override {
    return std::make_shared<MgSocket>(p_, listener_->accept());
  }
  std::shared_ptr<vos::StreamSocket> acceptFor(double virtual_seconds) override {
    auto conn = listener_->acceptFor(p_.vt_.toKernel(virtual_seconds));
    if (!conn) return nullptr;
    return std::make_shared<MgSocket>(p_, std::move(conn));
  }
  void close() override { listener_->close(); }

 private:
  Platform& p_;
  std::shared_ptr<net::TcpListener> listener_;
};

// Hybrid mode: a port must accept both escalated (TCP) and fluid
// connections. Both feed one unified backlog — the flow listener delivers
// straight into it, and a pump daemon drains the TCP listener's handshake
// output into it. Pure packet mode never comes through here, so its accept
// path (and event stream) is untouched.
class Platform::HybridListener : public vos::Listener {
 public:
  HybridListener(Platform& p, Host& rt, std::uint16_t port)
      : p_(p),
        unified_(std::make_shared<sim::Channel<std::shared_ptr<vos::StreamSocket>>>(p.sim_)) {
    tcp_ = rt.stack->listen(port);
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
    auto v = unified_->recvFor(p_.vt_.toKernel(virtual_seconds));
    return v ? std::move(*v) : nullptr;
  }

  void close() override {
    tcp_->close();
    flow_->close();
    unified_->close();
  }

 private:
  Platform& p_;
  std::shared_ptr<net::TcpListener> tcp_;
  std::shared_ptr<FlowListener> flow_;
  std::shared_ptr<sim::Channel<std::shared_ptr<vos::StreamSocket>>> unified_;
};

// ---------------------------------------------------------------- context --

class Platform::Context : public vos::HostContext {
 public:
  Context(Platform& p, Host& rt, const std::string& name) : p_(p), rt_(rt), cpu_{rt, name} {
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
    if (!p_.flow_table_) return std::make_shared<MgListener>(p_, rt_.stack->listen(port));
    if (!rt_.stack) return p_.flow_table_->listen(rt_.info->node, port);
    return std::make_shared<HybridListener>(p_, rt_, port);
  }

  std::shared_ptr<vos::StreamSocket> connect(const std::string& host_or_ip,
                                             std::uint16_t port) override {
    const vos::VirtualHostInfo& target = p_.mapper_.resolve(host_or_ip);
    // The connector decides the path through the model, once for the whole
    // connection: packet always escalates, flow never, hybrid per its
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

void Platform::attachNetwork(std::unique_ptr<net::NetworkModel> net) {
  net_ = std::move(net);
  packet_ = dynamic_cast<net::PacketNetwork*>(net_.get());
  if (net_->flows() != nullptr) {
    flow_table_ = std::make_unique<FlowEndpointTable>(
        *net_, [this](net::NodeId n) { return mapper_.byNode(n).hostname; },
        [this](double s) { return vt_.toKernel(s); });
  }
  for (const auto& info : mapper_.hosts()) {
    Host h;
    h.info = &info;
    // Transport stacks exist only where packets can arrive; pure flow mode
    // has no per-segment machinery at all.
    if (packet_ != nullptr) h.stack = std::make_unique<net::TcpStack>(*packet_, info.node);
    h.mem = std::make_unique<vos::MemoryManager>(info.memory_bytes, &sim_.metrics());
    hosts_.emplace(info.hostname, std::move(h));
  }
}

Platform::Host& Platform::host(const std::string& hostname) {
  auto it = hosts_.find(hostname);
  if (it == hosts_.end()) throw vos::UnknownHost(hostname);
  return it->second;
}

sim::Process& Platform::spawnOn(const std::string& host_or_ip, const std::string& process_name,
                                std::function<void(vos::HostContext&)> body) {
  const vos::VirtualHostInfo& info = mapper_.resolve(host_or_ip);
  Host& h = host(info.hostname);
  if (!h.alive) throw mg::Error("cannot spawn on crashed host " + info.hostname);
  sim::Process& p =
      sim_.spawn(process_name, [this, hostname = info.hostname, process_name, body = std::move(body)] {
        Context ctx(*this, host(hostname), process_name);
        body(ctx);
      });
  h.procs.push_back(p.id());
  return p;
}

}  // namespace mg::core
