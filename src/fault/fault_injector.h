// Executes a FaultPlan against a MicroGridPlatform, deterministically, from
// simulator events. Every injected fault increments `fault.*` registry
// counters and, with spans on, leaves a `fault.injector` instant marker, so
// fault runs are observable through the same machinery as everything else.
//
// The injector only touches platform mechanisms (crashHost, setLinkUp, ...).
// Middleware reactions — expiring the crashed host's GIS record, respawning
// its gatekeeper on restart — are wired in by the launcher through the
// onHostCrash / onHostRestart callbacks, keeping src/fault free of grid
// dependencies.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/microgrid_platform.h"
#include "fault/fault_plan.h"
#include "obs/state_capture.h"

namespace mg::fault {

class FaultInjector {
 public:
  /// Validates every event's target against the platform's topology and
  /// host table; throws ConfigError on an unknown link or host.
  FaultInjector(core::MicroGridPlatform& platform, FaultPlan plan);

  /// Middleware hooks, invoked right after the platform-level crash /
  /// restart has been applied. Set before arm().
  void onHostCrash(std::function<void(const std::string&)> cb) { on_crash_ = std::move(cb); }
  void onHostRestart(std::function<void(const std::string&)> cb) { on_restart_ = std::move(cb); }

  /// Schedule every event on the simulator clock (virtual time -> kernel
  /// time). Call once, before the platform runs.
  void arm();

  const FaultPlan& plan() const { return plan_; }

  /// Faults applied so far (inverse events from `duration` included).
  std::int64_t injected() const;

  /// Degenerate events deterministically skipped so far: crash of an
  /// already-down host, restart of a host that is up, link_down on a downed
  /// link (and link_up on an up one), a partition whose cut is already
  /// empty, a heal with nothing to mend, a brownout on a dead host. Ignored
  /// events count here (`fault.ignored`), never in injected(), schedule no
  /// inverse, and leave the availability accounting untouched — so the
  /// report stays consistent for any schedule the explorer composes.
  std::int64_t ignored() const;

  /// Availability / MTTR summary over the hosts the plan touched.
  struct HostReport {
    std::string host;
    int crashes = 0;
    double downtime_seconds = 0;   // total virtual time spent down
    double availability = 1.0;     // 1 - downtime / elapsed
    double mttr_seconds = 0;       // downtime / crashes
    bool down_at_horizon = false;  // still down at the observation horizon
  };
  /// Compute the report as of the current virtual time. `elapsed_seconds`
  /// overrides the observation window when positive (e.g. a bench's total
  /// runtime); by default the platform's current virtual time is used.
  std::vector<HostReport> report(double elapsed_seconds = 0) const;

  /// Render report() as an aligned text table.
  std::string renderReport(double elapsed_seconds = 0) const;

  /// Fold the injector's state into `w` (DESIGN.md §11): availability
  /// bookkeeping (per-host crash counts and open downtime intervals) and the
  /// live partition cuts. Two schedules that leave different fault
  /// bookkeeping behind must never collapse to one digest.
  void saveState(obs::StateWriter& w) const;

 private:
  void fire(const FaultEvent& ev);
  void applied(const FaultEvent& ev);
  void skipped(const FaultEvent& ev, const std::string& why);
  void validate(const FaultEvent& ev) const;
  obs::Counter& kindCounter(FaultKind k);

  core::MicroGridPlatform& platform_;
  FaultPlan plan_;
  bool armed_ = false;
  std::function<void(const std::string&)> on_crash_;
  std::function<void(const std::string&)> on_restart_;

  obs::Counter& c_injected_;
  obs::Counter& c_ignored_;
  std::map<std::string, obs::Counter*> kind_counters_;

  // Inverse events synthesized from applied faults with a `duration`, so a
  // scheduled closure holds an index rather than a copy. Not part of the
  // state capture: the kernel's pending events already carry the schedule.
  std::deque<FaultEvent> inverses_;

  // Partition id -> links taken down, for heal.
  std::map<std::string, std::vector<net::LinkId>> partitions_;

  struct HostStat {
    int crashes = 0;
    double down_since = -1;  // virtual seconds; -1 while up
    double downtime = 0;
  };
  std::map<std::string, HostStat> host_stats_;
};

}  // namespace mg::fault
