// The "physical grid" reference platform.
//
// Plays the role of the real testbed in the paper's validation experiments:
// compute on a host with speed V takes exactly ops/V seconds, and messages
// travel through the max-min fair flow-level network model — the same
// flow-mode Network/FlowSocket stack MicroGridPlatform uses under
// --netmodel=flow, so there is exactly one fluid wiring in the tree. Virtual time equals
// kernel time (rate 1). Everything but the exact CPU rule is the shared
// Platform runtime. See DESIGN.md §2 for why this substitution preserves the
// comparisons.
#pragma once

#include "core/platform.h"

namespace mg::core {

class ReferencePlatform : public Platform {
 public:
  explicit ReferencePlatform(const VirtualGridConfig& cfg);
  ~ReferencePlatform() override;

 protected:
  void computeFor(CpuSlot& slot, double ops) override;
};

}  // namespace mg::core
