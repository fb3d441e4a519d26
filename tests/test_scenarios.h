// Shared end-to-end scenario fixtures for the test suite.
//
// fault_test, obs_test, and econ_test each grew their own copy of the same
// wiring — Alpha cluster + launcher + armed fault injector, or the small
// two-cluster economy. This header is the single source for that setup;
// each test file layers its own assertions on top.
//
// Everything here is deterministic: two calls with equal arguments produce
// byte-identical runs (the determinism tests rely on it).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/launcher.h"
#include "core/microgrid_platform.h"
#include "core/topologies.h"
#include "econ/broker.h"
#include "econ/economy.h"
#include "econ/grid_gen.h"
#include "econ/workload.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "grid/gram.h"
#include "npb/npb.h"
#include "vmpi/comm.h"

namespace mgtest {

// ------------------------------------------------------ fault event builders

/// A minimal event of `kind` against `target` — the common test shape.
inline mg::fault::FaultEvent simpleEvent(mg::fault::FaultKind kind,
                                         const std::string& target,
                                         double at = 0.1, double duration = 0) {
  mg::fault::FaultEvent ev;
  ev.at = at;
  ev.kind = kind;
  ev.name = "test";
  ev.target = target;
  ev.duration = duration;
  return ev;
}

/// The canonical mid-run crash: vm3 dies at `at` and restarts `duration`
/// later (the crash-resubmit and golden-run scenarios both use it).
inline mg::fault::FaultEvent crashVm3(double at = 1.0, double duration = 3.0) {
  mg::fault::FaultEvent ev;
  ev.at = at;
  ev.kind = mg::fault::FaultKind::HostCrash;
  ev.name = "crash";
  ev.target = "vm3.ucsd.edu";
  ev.duration = duration;
  return ev;
}

/// The canonical lossy window: eth1 at `loss` drop rate for `duration`.
inline mg::fault::FaultEvent lossyEth1(double loss = 0.05, double duration = 60.0,
                                       double at = 0.0) {
  mg::fault::FaultEvent ev;
  ev.at = at;
  ev.kind = mg::fault::FaultKind::LinkDegrade;
  ev.name = "lossy";
  ev.target = "eth1";
  ev.loss = loss;
  ev.duration = duration;
  return ev;
}

// ------------------------------------------------- Alpha launcher scenarios

struct HarnessOptions {
  bool spans = false;
  int max_resubmits = 3;
  std::string config_name = "Alpha4";
};

/// The Alpha cluster behind a started Launcher (GIS + gatekeepers up), with
/// optional observability streams enabled and a one-call fault arming hook.
/// Populate `registry` before run()/armFaults() as needed.
struct LauncherHarness {
  explicit LauncherHarness(const HarnessOptions& o = {})
      : cfg(mg::core::topologies::alphaCluster()),
        platform(cfg),
        launcher(platform, registry) {
    if (o.spans) platform.simulator().spans().setEnabled(true);
    launcher.startServices(&cfg, o.config_name);
    mg::core::LaunchOptions lopts;
    lopts.max_resubmits = o.max_resubmits;
    launcher.setLaunchOptions(lopts);
  }

  /// Arm `plan`, wiring host crash/restart through the launcher's
  /// availability tracking (the standard production hookup).
  mg::fault::FaultInjector& armFaults(mg::fault::FaultPlan plan) {
    injector.emplace(platform, std::move(plan));
    injector->onHostCrash([this](const std::string& h) { launcher.markHostDown(h); });
    injector->onHostRestart([this](const std::string& h) { launcher.markHostUp(h); });
    injector->arm();
    return *injector;
  }

  /// One rank on each of the four Alpha hosts.
  static std::vector<mg::grid::AllocationPart> fourRanks() {
    return {{"vm0.ucsd.edu", 1},
            {"vm1.ucsd.edu", 1},
            {"vm2.ucsd.edu", 1},
            {"vm3.ucsd.edu", 1}};
  }

  mg::core::VirtualGridConfig cfg;
  mg::core::MicroGridPlatform platform;
  mg::grid::ExecutableRegistry registry;
  mg::core::Launcher launcher;
  std::optional<mg::fault::FaultInjector> injector;
};

// ------------------------------------- direct (no-launcher) EP under faults

struct EpFaultRun {
  std::string metrics;             // MetricsRegistry::snapshotJson()
  std::string tree;                // SpanRecorder::serializeTree() ("" if not enabled)
  std::vector<double> checksums;   // one per EP rank
};

/// Four NPB EP ranks spawned directly (no middleware) on the Alpha cluster
/// under `plan` — the stochastic-determinism workload: TCP retransmits, RTO
/// timers armed and cancelled, seeded packet drops. Everything observable is
/// a pure function of (plan, seed).
inline EpFaultRun runEpUnderFaults(const mg::fault::FaultPlan& plan,
                                   std::uint64_t seed = 42,
                                   bool spans = false) {
  auto cfg = mg::core::topologies::alphaCluster();
  mg::core::MicroGridOptions mopts;
  mopts.seed = seed;
  mg::core::MicroGridPlatform platform(cfg, mopts);
  if (spans) platform.simulator().spans().setEnabled(true);

  mg::fault::FaultPlan copy = plan;
  mg::fault::FaultInjector injector(platform, std::move(copy));
  injector.arm();

  std::vector<std::string> hosts;
  for (const auto& h : platform.mapper().hosts()) hosts.push_back(h.hostname);
  hosts.resize(4);
  auto checksums = std::make_shared<std::vector<double>>(4);
  for (int r = 0; r < 4; ++r) {
    platform.spawnOn(hosts[static_cast<size_t>(r)], "rank" + std::to_string(r),
                     [=](mg::vos::HostContext& ctx) {
                       auto comm = mg::vmpi::Comm::init(ctx, r, hosts);
                       const auto res = mg::npb::runEp(*comm, ctx, mg::npb::NpbClass::S);
                       (*checksums)[static_cast<size_t>(r)] = res.checksum;
                       comm->finalize();
                     });
  }
  platform.run();

  EpFaultRun out;
  out.metrics = platform.simulator().metrics().snapshotJson();
  if (spans) out.tree = platform.simulator().spans().serializeTree();
  out.checksums = *checksums;
  return out;
}

// ------------------------------------------------------- small economy runs

/// A small but non-trivial economy: 2 clusters, 16 cores, ~60% utilization.
inline mg::econ::EconGridSpec smallGrid() {
  mg::econ::EconGridSpec g;
  g.clusters = 2;
  g.hosts_per_cluster = 4;
  g.cores_per_host = 2;
  g.timeshared_every = 0;  // space-shared only: simplest accounting
  return g;
}

inline mg::econ::WorkloadSpec smallWorkload(int jobs) {
  mg::econ::WorkloadSpec w;
  w.jobs = jobs;
  w.users = 50;
  w.rate = 0.3;
  w.runtime_mu = 2.0;
  w.max_cpus = 4;
  w.day_period_s = 600;
  return w;
}

inline mg::econ::EconReport runEconomy(const mg::econ::EconGridSpec& gspec,
                                       const mg::econ::WorkloadSpec& wspec,
                                       mg::econ::BrokerPolicy policy,
                                       double crash_at = 0, double restart_at = 0) {
  const mg::econ::EconGrid grid = mg::econ::makeEconGrid(gspec);
  mg::core::MicroGridOptions mopts;
  mopts.netmodel = mg::net::NetModelKind::Flow;
  mopts.rate_override = 1.0;
  mg::core::MicroGridPlatform platform(grid.grid, mopts);
  mg::econ::EconOptions eopts;
  eopts.workload = wspec;
  eopts.policy = policy;
  mg::econ::GridEconomy economy(platform, grid, eopts);
  economy.arm();
  if (crash_at > 0) {
    economy.scheduleCrash("c0", crash_at);
    if (restart_at > 0) economy.scheduleRestart("c0", restart_at);
  }
  platform.run();
  return economy.report();
}

// ------------------------------------------------ explorer branch logs

/// Each schedule's "[signature] outcome" from an explorer branch log. The
/// index is dropped, and so is a pruned branch's "pruned@t digest=X"
/// pause point, so the outcomes a pruned exploration inherits line up with
/// those of a full replay (hash_pruning = false) of the same menu.
inline std::vector<std::string> branchOutcomes(const std::vector<std::string>& log) {
  std::vector<std::string> out;
  for (const std::string& line : log) {
    std::string s = line.substr(line.find(' ') + 1);  // "#n " goes
    const std::size_t p = s.find("] pruned@");
    if (p != std::string::npos) {
      const std::size_t d = s.find(" digest=", p) + 8 + 16;  // 16 hex digits
      s.erase(p + 1, d - (p + 1));
    }
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace mgtest
