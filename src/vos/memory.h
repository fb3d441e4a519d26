// Virtual-host memory capacity enforcement (paper §3.2.1, Fig 5).
//
// The scheduler enforces a per-virtual-host memory limit; each process costs
// a fixed bookkeeping overhead (the paper measured "about 1KB less than the
// specified memory limitation ... due to memory overhead for the process").
// Allocation is accounting-only: the simulation never actually reserves the
// bytes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/error.h"

namespace mg::vos {

/// Thrown when an allocation would exceed the virtual host's capacity.
class OutOfMemoryError : public mg::Error {
 public:
  explicit OutOfMemoryError(const std::string& what) : mg::Error("out of memory: " + what) {}
};

class MemoryManager {
 public:
  /// Per-process bookkeeping overhead, matching the paper's ~1 KB.
  static constexpr std::int64_t kProcessOverhead = 1024;

  /// The `vos.mem.*` instruments every host on one simulator shares. The
  /// value-initialized default (all null) keeps a manager standalone (unit
  /// tests).
  struct Instruments {
    obs::Counter* allocs;
    obs::Counter* oom;
    obs::Gauge* used;
    /// Registers the instruments in `registry` (the platforms pass their
    /// simulator's, once, so they are listed before any host allocates).
    static Instruments in(obs::MetricsRegistry& registry);
  };

  explicit MemoryManager(std::int64_t capacity_bytes, Instruments instruments = {});

  using ProcessId = std::int32_t;

  /// Register a process; charges kProcessOverhead. Throws OutOfMemoryError
  /// if even the overhead does not fit.
  ProcessId registerProcess(const std::string& name);

  /// Release a process and everything it allocated.
  void releaseProcess(ProcessId id);

  /// Account `bytes` to the process; throws OutOfMemoryError when the host
  /// capacity would be exceeded (the process survives; the caller decides).
  void allocate(ProcessId id, std::int64_t bytes);

  /// Return previously allocated bytes. Freeing more than allocated throws.
  void free(ProcessId id, std::int64_t bytes);

  std::int64_t capacity() const { return capacity_; }
  std::int64_t used() const { return used_; }
  std::int64_t available() const { return capacity_ - used_; }
  std::int64_t processUsage(ProcessId id) const;

 private:
  struct Proc {
    std::string name;
    std::int64_t used = 0;
    bool live = false;
  };
  Proc& liveProc(ProcessId id);
  const Proc& liveProc(ProcessId id) const;

  std::int64_t capacity_;
  std::int64_t used_ = 0;
  Instruments metrics_;
  std::vector<Proc> procs_;
};

}  // namespace mg::vos
