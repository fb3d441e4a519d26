#include "core/reference_platform.h"

#include "util/log.h"

namespace mg::core {

// ---------------------------------------------------------------- context --

class ReferencePlatform::RefContext : public vos::HostContext {
 public:
  RefContext(ReferencePlatform& p, const vos::VirtualHostInfo& info, const std::string& name)
      : p_(p), info_(info), mem_(p.memoryFor(info.hostname)) {
    mem_proc_ = mem_.registerProcess(name);
  }
  ~RefContext() override { mem_.releaseProcess(mem_proc_); }

  const vos::VirtualHostInfo& host() const override { return info_; }
  double wallTime() const override { return sim::toSeconds(p_.sim_.now()); }
  void sleep(double s) override { p_.sim_.delay(sim::fromSeconds(s)); }

  void compute(double ops) override {
    if (ops < 0) throw mg::UsageError("negative compute");
    // Reference semantics: exact execution time, no quantization.
    p_.sim_.delay(sim::fromSeconds(ops / info_.cpu_ops));
  }

  void allocateMemory(std::int64_t bytes) override { mem_.allocate(mem_proc_, bytes); }
  void freeMemory(std::int64_t bytes) override { mem_.free(mem_proc_, bytes); }

  const vos::HostMapper& mapper() const override { return p_.mapper_; }

  std::shared_ptr<vos::Listener> listen(std::uint16_t port) override {
    return p_.table_->listen(info_.node, port);
  }

  std::shared_ptr<vos::StreamSocket> connect(const std::string& host_or_ip,
                                             std::uint16_t port) override {
    const vos::VirtualHostInfo& target = p_.mapper_.resolve(host_or_ip);
    return p_.table_->connect(info_.node, target.node, port);
  }

  sim::Process& spawnProcess(const std::string& name,
                             std::function<void(vos::HostContext&)> body) override {
    return p_.spawnOn(info_.hostname, name, std::move(body));
  }

  sim::Simulator& simulator() override { return p_.sim_; }

 private:
  ReferencePlatform& p_;
  const vos::VirtualHostInfo& info_;
  vos::MemoryManager& mem_;
  vos::MemoryManager::ProcessId mem_proc_;
};

// --------------------------------------------------------------- platform --

ReferencePlatform::ReferencePlatform(const VirtualGridConfig& cfg) : mapper_(cfg.mapper()) {
  flow_ = std::make_unique<net::FlowNetwork>(sim_, cfg.topology());
  table_ = std::make_unique<FlowEndpointTable>(
      *flow_, [this](net::NodeId n) { return mapper_.byNode(n).hostname; },
      [](double s) { return sim::fromSeconds(s); });
}

ReferencePlatform::~ReferencePlatform() { sim_.shutdown(); }

vos::MemoryManager& ReferencePlatform::memoryFor(const std::string& hostname) {
  auto it = memory_.find(hostname);
  if (it == memory_.end()) {
    const auto& info = mapper_.resolve(hostname);
    it = memory_.emplace(hostname, std::make_unique<vos::MemoryManager>(info.memory_bytes, &sim_.metrics())).first;
  }
  return *it->second;
}

sim::Process& ReferencePlatform::spawnOn(const std::string& host_or_ip,
                                         const std::string& process_name,
                                         std::function<void(vos::HostContext&)> body) {
  const vos::VirtualHostInfo& info = mapper_.resolve(host_or_ip);
  return sim_.spawn(process_name, [this, &info, process_name, body = std::move(body)] {
    RefContext ctx(*this, info, process_name);
    body(ctx);
  });
}

}  // namespace mg::core
