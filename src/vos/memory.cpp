#include "vos/memory.h"

namespace mg::vos {

MemoryManager::Instruments MemoryManager::Instruments::in(obs::MetricsRegistry& registry) {
  return Instruments{&registry.counter("vos.mem.allocations"),
                     &registry.counter("vos.mem.oom_errors"),
                     &registry.gauge("vos.mem.used_bytes")};
}

MemoryManager::MemoryManager(std::int64_t capacity_bytes, Instruments instruments)
    : capacity_(capacity_bytes), metrics_(instruments) {
  if (capacity_bytes < 0) throw ConfigError("negative memory capacity");
}

MemoryManager::Proc& MemoryManager::liveProc(ProcessId id) {
  if (id < 0 || static_cast<size_t>(id) >= procs_.size() || !procs_[static_cast<size_t>(id)].live) {
    throw UsageError("unknown memory process id");
  }
  return procs_[static_cast<size_t>(id)];
}

const MemoryManager::Proc& MemoryManager::liveProc(ProcessId id) const {
  return const_cast<MemoryManager*>(this)->liveProc(id);
}

MemoryManager::ProcessId MemoryManager::registerProcess(const std::string& name) {
  if (used_ + kProcessOverhead > capacity_) {
    if (metrics_.oom != nullptr) metrics_.oom->inc();
    throw OutOfMemoryError("process overhead for '" + name + "' exceeds capacity");
  }
  used_ += kProcessOverhead;
  if (metrics_.used != nullptr) metrics_.used->add(static_cast<double>(kProcessOverhead));
  procs_.push_back(Proc{name, kProcessOverhead, true});
  return static_cast<ProcessId>(procs_.size() - 1);
}

void MemoryManager::releaseProcess(ProcessId id) {
  Proc& p = liveProc(id);
  used_ -= p.used;
  if (metrics_.used != nullptr) metrics_.used->add(-static_cast<double>(p.used));
  p.used = 0;
  p.live = false;
}

void MemoryManager::allocate(ProcessId id, std::int64_t bytes) {
  if (bytes < 0) throw UsageError("negative allocation");
  Proc& p = liveProc(id);
  if (used_ + bytes > capacity_) {
    if (metrics_.oom != nullptr) metrics_.oom->inc();
    throw OutOfMemoryError(p.name + " requested " + std::to_string(bytes) + " bytes, " +
                           std::to_string(available()) + " available");
  }
  used_ += bytes;
  p.used += bytes;
  if (metrics_.allocs != nullptr) metrics_.allocs->inc();
  if (metrics_.used != nullptr) metrics_.used->add(static_cast<double>(bytes));
}

void MemoryManager::free(ProcessId id, std::int64_t bytes) {
  if (bytes < 0) throw UsageError("negative free");
  Proc& p = liveProc(id);
  if (bytes > p.used - kProcessOverhead) throw UsageError("freeing more than allocated");
  used_ -= bytes;
  p.used -= bytes;
  if (metrics_.used != nullptr) metrics_.used->add(-static_cast<double>(bytes));
}

std::int64_t MemoryManager::processUsage(ProcessId id) const { return liveProc(id).used; }

}  // namespace mg::vos
