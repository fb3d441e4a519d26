#include "core/reference_platform.h"

#include "net/flow_network.h"

namespace mg::core {

ReferencePlatform::ReferencePlatform(const VirtualGridConfig& cfg) : Platform(cfg, 1.0) {
  attachNetwork(std::make_unique<net::FlowNetwork>(sim_, cfg.topology()));
}

ReferencePlatform::~ReferencePlatform() { shutdown(); }

void ReferencePlatform::computeFor(CpuSlot& slot, double ops) {
  // Reference semantics: exact execution time, no quantization.
  sim_.delay(sim::fromSeconds(ops / slot.host.info->cpu_ops));
}

}  // namespace mg::core
