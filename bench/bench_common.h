// Shared plumbing for the experiment harnesses: run workloads through the
// full GRAM submission path on a platform and report paper-style rows.
#pragma once

#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/wavetoy.h"
#include "core/launcher.h"
#include "core/microgrid_platform.h"
#include "core/reference_platform.h"
#include "core/topologies.h"
#include "npb/npb.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"

namespace mgbench {

using namespace mg;

/// One GRAM allocation part per virtual host, `n` hosts (default: all).
inline std::vector<grid::AllocationPart> onePerHost(const core::Platform& platform, int n = -1) {
  std::vector<grid::AllocationPart> parts;
  for (const auto& h : platform.mapper().hosts()) {
    if (n >= 0 && static_cast<int>(parts.size()) == n) break;
    parts.push_back({h.hostname, 1});
  }
  return parts;
}

/// When MG_METRICS=table or MG_METRICS=json is set in the environment, dump
/// the platform simulator's metrics snapshot to stdout (after a workload).
inline void maybeDumpMetrics(core::Platform& platform) {
  const char* fmt = std::getenv("MG_METRICS");
  if (!fmt) return;
  const std::string f = fmt;
  if (f == "json") {
    std::cout << platform.simulator().metrics().snapshotJson() << "\n";
  } else if (f == "table") {
    platform.simulator().metrics().snapshotTable().print(std::cout, "metrics");
  }
}

/// Run one NPB benchmark end-to-end (GIS + gatekeepers + co-allocation) and
/// return the longest per-rank time. Aborts the harness on failure.
inline double runNpbOn(core::Platform& platform, npb::Benchmark b, npb::NpbClass cls,
                       std::vector<grid::AllocationPart> parts) {
  grid::ExecutableRegistry registry;
  npb::ResultSink sink;
  npb::registerNpb(registry, sink);
  core::Launcher launcher(platform, registry);
  launcher.startServices();
  const std::string exe = "npb." + util::toLower(npb::benchmarkName(b));
  auto result = launcher.run(exe, npb::className(cls), std::move(parts));
  if (!result.ok || !sink.allVerified()) {
    std::cerr << "FATAL: " << exe << " run failed: " << result.error << "\n";
    std::exit(1);
  }
  maybeDumpMetrics(platform);
  return sink.maxSeconds();
}

/// Run WaveToy end-to-end; returns the longest per-rank time.
inline double runWaveToyOn(core::Platform& platform, int grid_edge, int timesteps,
                           std::vector<grid::AllocationPart> parts) {
  grid::ExecutableRegistry registry;
  apps::WaveToySink sink;
  apps::registerWaveToy(registry, sink);
  core::Launcher launcher(platform, registry);
  launcher.startServices();
  auto result = launcher.run("cactus.wavetoy",
                             std::to_string(grid_edge) + " " + std::to_string(timesteps),
                             std::move(parts));
  if (!result.ok || !sink.allVerified()) {
    std::cerr << "FATAL: wavetoy run failed: " << result.error << "\n";
    std::exit(1);
  }
  maybeDumpMetrics(platform);
  return sink.maxSeconds();
}

inline void printHeader(const std::string& title, const std::string& paper_ref) {
  std::cout << "==========================================================\n"
            << title << "\n"
            << "(reproduces " << paper_ref << ")\n"
            << "==========================================================\n"
            // Timing provenance: wall-clock numbers depend on the host.
            << "env: hardware_cores=" << std::thread::hardware_concurrency() << "\n";
}

}  // namespace mgbench
