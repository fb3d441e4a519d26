// grid_economy — the grid-economy subsystem end-to-end: one synthetic
// open-loop workload placed by each broker policy on the same generated
// grid, then a fault run showing broker-level resubmission.
//
// Phase 1 replays the identical job stream (same seed) under the Cost,
// Deadline, and Locality policies on fresh platforms and prints a
// comparison table. The run fails if the policies do not produce
// measurably different deadline-miss rates — the broker must matter.
//
// Phase 2 reruns the Deadline policy while crashing one cluster mid-run
// (its GIS record expires, PR-2 style) and restarting it later: every job
// still finishes, some via resubmission to surviving clusters.
//
//   $ ./examples/grid_economy
//   $ ./examples/grid_economy --jobs 50000 --workload examples/workloads/econ_smoke.ini
//
// Options:
//   --workload FILE  [workload]/[grid] sections (default: built-in scenario)
//   --jobs N         override the job count
#include <iostream>
#include <string>

#include "core/microgrid_platform.h"
#include "econ/economy.h"
#include "obs/metrics.h"
#include "util/config.h"
#include "util/error.h"
#include "util/strings.h"
#include "util/table.h"

using namespace mg;

namespace {

struct Options {
  std::string workload_path;
  std::int64_t jobs = 0;
};

Options parseArgs(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw mg::UsageError("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      opt.workload_path = next();
    } else if (flag == "--jobs") {
      opt.jobs = util::flagInt(flag, next());
    } else {
      throw mg::UsageError("unknown flag " + flag + " (see the header of grid_economy.cpp)");
    }
  }
  return opt;
}

/// Built-in scenario: 20k jobs on an 8-cluster grid at ~50% mean
/// utilization, so queues form at the diurnal peak and drain at night.
void defaultScenario(econ::WorkloadSpec& w, econ::EconGridSpec& g) {
  w.jobs = 20000;
  w.users = 4000;
  w.seed = 42;
  w.rate = 3.0;
  w.day_period_s = 3600;
  w.runtime_mu = 3.5;
  w.max_cpus = 32;
  g.clusters = 8;
  g.hosts_per_cluster = 32;
  g.cores_per_host = 4;
}

econ::EconReport runPolicy(const econ::EconGrid& grid, const econ::WorkloadSpec& spec,
                           econ::BrokerPolicy policy, double crash_at = 0, double restart_at = 0,
                           const std::string& crash_cluster = "") {
  core::MicroGridOptions mopts;
  mopts.netmodel = net::NetModelKind::Flow;
  mopts.rate_override = 1.0;
  core::MicroGridPlatform platform(grid.grid, mopts);
  econ::EconOptions eopts;
  eopts.workload = spec;
  eopts.policy = policy;
  econ::GridEconomy economy(platform, grid, eopts);
  economy.arm();
  if (!crash_cluster.empty()) {
    economy.scheduleCrash(crash_cluster, crash_at);
    economy.scheduleRestart(crash_cluster, restart_at);
  }
  platform.run();
  return economy.report();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parseArgs(argc, argv);

    econ::WorkloadSpec spec;
    econ::EconGridSpec gspec;
    if (opt.workload_path.empty()) {
      defaultScenario(spec, gspec);
    } else {
      const util::Config raw = util::Config::parseFile(opt.workload_path);
      spec = econ::WorkloadSpec::fromConfig(raw);
      gspec = econ::EconGridSpec::fromConfig(raw);
    }
    if (opt.jobs > 0) spec.jobs = opt.jobs;
    const econ::EconGrid grid = econ::makeEconGrid(gspec);

    std::cout << "grid economy: " << gspec.clusters << " cluster(s), "
              << gspec.clusters * gspec.hosts_per_cluster * gspec.cores_per_host
              << " core(s), " << spec.jobs << " job(s), seed " << spec.seed << "\n\n";

    // ---- Phase 1: the same day under each placement policy ----
    util::Table table({"policy", "miss_rate", "slowdown_p50", "mean_wait_s", "spent", "failed"});
    double lo_miss = 1e300, hi_miss = -1e300;
    for (const econ::BrokerPolicy p :
         {econ::BrokerPolicy::Cost, econ::BrokerPolicy::Deadline, econ::BrokerPolicy::Locality}) {
      const econ::EconReport r = runPolicy(grid, spec, p);
      if (r.completed + r.failed + r.rejected_budget + r.rejected_unplaceable != r.submitted) {
        std::cerr << "FAIL: " << econ::brokerPolicyName(p) << " lost jobs\n";
        return 1;
      }
      table.addRow({econ::brokerPolicyName(p), obs::formatDouble(r.missRate()),
                    obs::formatDouble(r.slowdown_p50), obs::formatDouble(r.mean_wait_s),
                    obs::formatDouble(r.budget_spent), std::to_string(r.failed)});
      lo_miss = std::min(lo_miss, r.missRate());
      hi_miss = std::max(hi_miss, r.missRate());
    }
    std::cout << table.render() << "\n";
    // The acceptance gate: switching policy must move the miss rate.
    if (hi_miss - lo_miss < 1e-3) {
      std::cerr << "FAIL: policies produced indistinguishable deadline-miss rates\n";
      return 1;
    }
    std::cout << "policy effect on miss rate: " << obs::formatDouble(lo_miss) << " .. "
              << obs::formatDouble(hi_miss) << " (PASS)\n\n";

    // ---- Phase 2: crash a cluster mid-run, jobs resubmit elsewhere ----
    const std::string victim = grid.clusters.at(1).name;
    std::cout << "fault run: crashing " << victim << " at t=600s, restart at t=1800s\n";
    const econ::EconReport f =
        runPolicy(grid, spec, econ::BrokerPolicy::Deadline, 600, 1800, victim);
    std::cout << f.render();
    if (f.completed + f.failed + f.rejected_budget + f.rejected_unplaceable != f.submitted) {
      std::cerr << "FAIL: fault run lost jobs\n";
      return 1;
    }
    if (f.resubmits == 0) {
      std::cerr << "FAIL: expected resubmissions after the cluster crash\n";
      return 1;
    }
    std::cout << "fault run: " << f.resubmits << " resubmission(s), " << f.failed
              << " job(s) exhausted retries (PASS)\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "grid_economy: " << e.what() << "\n";
    return 2;
  }
}
