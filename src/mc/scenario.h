// Model-checking scenarios (DESIGN.md §11).
//
// A ScenarioRun is one fully-armed simulation instance: a MicroGridPlatform
// with a workload submitted (but not yet driven) and a FaultInjector armed
// with some FaultPlan. The explorer owns the stepping — runTo() pauses at
// its decision points to capture state digests, runToEnd() drains the
// run so the invariant checker can inspect the terminal state.
//
// Because process stacks hold pointers into live heap state, a run cannot
// be byte-copied; a scenario is therefore a *factory* — a pure function
// from a FaultPlan to a fresh, deterministic instance. Returning to a
// state means rebuilding via the factory and replaying to its virtual
// time, where digest() identifies it. That makes determinism of the
// factory a hard requirement: two instances built from equal plans must be
// byte-identical at every virtual time.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/launcher.h"
#include "core/microgrid_platform.h"
#include "fault/fault_injector.h"
#include "obs/state_capture.h"

namespace mg::mc {

struct ScenarioRun {
  /// Opaque keep-alive (executable registries, result sinks, byte counters).
  /// Declared first so it outlives the platform and its processes.
  std::shared_ptr<void> context;

  std::unique_ptr<core::MicroGridPlatform> platform;
  std::unique_ptr<core::Launcher> launcher;  // null for raw-process scenarios
  std::unique_ptr<fault::FaultInjector> injector;
  obs::StateCaptureRegistry capture;

  /// Work accounting for the no-lost-jobs invariant: after runToEnd(),
  /// units_completed() must equal units_expected.
  std::int64_t units_expected = 0;
  std::function<std::int64_t()> units_completed;
  /// Extra workload-health probe; returns "" while healthy. Consulted by the
  /// invariant checker after the run drains.
  std::function<std::string()> workload_error;

  /// Drive the simulation to virtual time `virtual_s` (armed fault events in
  /// (last, virtual_s] fire inside). Returns the new virtual time: `virtual_s`
  /// while events remain, else the time of the last event (a drained run
  /// keeps its own clock, as after runToEnd()).
  double runTo(double virtual_s);

  /// Drain the simulation (daemons stay suspended); returns the final
  /// virtual time. The platform stays alive for invariant inspection.
  double runToEnd();

  /// Canonical digest of the full platform state at the current pause point.
  std::uint64_t digest() const { return capture.digest(); }

  ScenarioRun() = default;
  ScenarioRun(const ScenarioRun&) = delete;
  ScenarioRun& operator=(const ScenarioRun&) = delete;
  ~ScenarioRun();
};

/// A deterministic builder: equal plans must produce byte-identical runs.
using ScenarioFactory =
    std::function<std::unique_ptr<ScenarioRun>(const fault::FaultPlan&)>;

/// The canonical light scenario: the 4-host Alpha cluster moving one 256 KiB
/// TCP transfer vm1 -> vm0 (client connects at t=1ms). No middleware, a few
/// thousand kernel events — cheap enough to replay hundreds of schedules.
/// Transient link faults and crash/restart of the bystander hosts vm2/vm3
/// leave the transfer completable, so the standard invariants hold on every
/// schedule unless something is genuinely broken.
ScenarioFactory transferScenario();

/// A launcher-driven scenario: GIS + gatekeepers up, one job submitted via
/// Launcher::submitAsync (the non-blocking half of run(), so the explorer
/// keeps control of stepping).
struct LauncherScenarioSpec {
  core::VirtualGridConfig grid;
  std::string config_name = "mc";
  std::string executable;
  std::string arguments;
  std::vector<grid::AllocationPart> parts;
  std::string client_host;  // default: the first part's host
  int max_resubmits = 3;
  core::MicroGridOptions platform;
  /// Registers the executables each fresh instance may run. Must be
  /// deterministic; sinks it captures are shared across instances.
  std::function<void(grid::ExecutableRegistry&)> registrar;
};
ScenarioFactory launcherScenario(LauncherScenarioSpec spec);

}  // namespace mg::mc
