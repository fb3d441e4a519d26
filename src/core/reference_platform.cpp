#include "core/reference_platform.h"

namespace mg::core {

ReferencePlatform::ReferencePlatform(const VirtualGridConfig& cfg) : Platform(cfg, 1.0) {
  net::NetworkOptions nopts;
  nopts.kind = net::NetModelKind::Flow;
  attachNetwork(cfg, std::move(nopts));
}

ReferencePlatform::~ReferencePlatform() { shutdown(); }

void ReferencePlatform::computeFor(CpuSlot& slot, double ops) {
  // Reference semantics: exact execution time, no quantization.
  sim_.delay(sim::fromSeconds(ops / slot.host.info->cpu_ops));
}

}  // namespace mg::core
