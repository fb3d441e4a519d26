// Snapshot/restore by deterministic replay (DESIGN.md §11).
//
// Simulated processes' stacks hold pointers into live heap state (sockets,
// channels, the platform itself), so the kernel cannot byte-copy them. A
// snapshot is therefore a *replay recipe*, the stateless-model-checking
// construction: {virtual time, canonical state digest, the FaultPlan the
// instance was built with}. Restoring rebuilds a fresh instance through the
// same ScenarioFactory, replays it to the capture time, and verifies the
// digest — byte-identical state, bought with determinism instead of memcpy.
//
// A digest mismatch on restore means the factory is NOT a pure function of
// its plan (hidden global state, wall-clock leakage, unseeded randomness) —
// exactly the bug class that would silently invalidate every explorer
// result, surfaced loudly with a transcript diff.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "fault/fault_plan.h"
#include "mc/scenario.h"

namespace mg::mc {

struct Snapshot {
  double at = 0;              // virtual time of the capture
  std::uint64_t digest = 0;   // canonical state digest at `at`
  fault::FaultPlan plan;      // the replay recipe, with the factory
};

/// Capture the current pause point of `run` (which was built from `plan`).
Snapshot capture(const ScenarioRun& run, double at, const fault::FaultPlan& plan);

/// Rebuild via `make`, replay to `snap.at`, and verify the digest. Throws
/// mg::StateError on a mismatch, with the first diverging transcript lines
/// in the message. The returned run is paused exactly at snap.at.
std::unique_ptr<ScenarioRun> restore(const ScenarioFactory& make, const Snapshot& snap);

}  // namespace mg::mc
