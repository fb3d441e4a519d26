// The benchmark's four workloads. Each pass builds its platforms from
// scratch, runs them through the library's public APIs, checks the outputs,
// and reads the work counters before the platforms die.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "econ/workload.h"
#include "harness.h"
#include "net/topology.h"

namespace perfbench {

struct WorkloadEnv {
  std::string root;        // checkout root; example configs are read from here
  std::uint64_t seed = 1;  // every generated input derives from this
  bool tiny = false;       // self-test sizes
  bool setup_only = false; // stop after set-up: only Pass::setup_s is filled in
  Tracer* tracer = nullptr;
};

/// One execution of a workload. Host times sum over the pass's platforms.
struct Pass {
  double setup_s = 0;  // start of the workload -> first simulated event
  double run_s = 0;    // simulation phases
  double cpu_s = 0;    // user + sys over the simulation phases
  double sys_s = 0;
  std::int64_t csw = 0;  // OS context switches over the simulation phases
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;  // failed output checks
  Counts counts;
  Digest digest;  // virtual results only
  double model_err_pct = 0;
  std::vector<double> replay_s;  // explorer: host seconds per replayed schedule
};

struct Workload {
  const char* name;
  Pass (*pass)(const WorkloadEnv&);
  /// The workload's virtual network, for the route-column probe.
  mg::net::Topology (*topology)(const WorkloadEnv&);
};

const std::vector<Workload>& workloads();
const Workload* findWorkload(const std::string& name);

/// examples/workloads/million_day.ini's [workload] with the seed applied
/// (the econ.gen_ns probe draws from it on every workload).
mg::econ::WorkloadSpec millionDaySpec(const WorkloadEnv& env);

}  // namespace perfbench
