// CACTUS WaveToy on a virtual Grid described by a config file — the paper's
// full-application scenario (§3.5), with the grid description loadable from
// disk or built from the Alpha-cluster preset.
//
//   $ ./examples/cactus_wavetoy [grid_edge] [timesteps] [config.ini]
//
// Config-file format: see core/virtual_grid.h.
#include <cstdlib>
#include <iostream>
#include <limits>

#include "apps/wavetoy.h"
#include "core/launcher.h"
#include "core/microgrid_platform.h"
#include "core/reference_platform.h"
#include "core/topologies.h"
#include "util/stats.h"
#include "util/strings.h"

using namespace mg;

namespace {

double runOn(core::Platform& platform, int edge, int steps) {
  grid::ExecutableRegistry registry;
  apps::WaveToySink sink;
  apps::registerWaveToy(registry, sink);
  core::Launcher launcher(platform, registry);
  launcher.startServices();
  std::vector<grid::AllocationPart> parts;
  for (const auto& h : platform.mapper().hosts()) parts.push_back({h.hostname, 1});
  auto result = launcher.run("cactus.wavetoy",
                             std::to_string(edge) + " " + std::to_string(steps), parts);
  if (!result.ok || !sink.allVerified()) {
    std::cerr << "wavetoy failed: " << result.error << "\n";
    std::exit(1);
  }
  std::cout << "  final field energy " << sink.results().front().energy << " (verified)\n";
  return sink.maxSeconds();
}

}  // namespace

int main(int argc, char** argv) {
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  int edge = 50;
  int steps = 60;
  try {
    if (argc > 1) edge = static_cast<int>(util::flagInt("grid_edge", argv[1], 2, kIntMax));
    if (argc > 2) steps = static_cast<int>(util::flagInt("timesteps", argv[2], 1, kIntMax));
  } catch (const UsageError& e) {
    std::cerr << "cactus_wavetoy: " << e.what() << "\n"
              << "usage: cactus_wavetoy [grid_edge] [timesteps] [config.ini]\n";
    return 2;
  }
  core::VirtualGridConfig cfg = argc > 3
                                    ? core::VirtualGridConfig::fromConfig(
                                          util::Config::parseFile(argv[3]))
                                    : core::topologies::alphaCluster();

  std::cout << "WaveToy, grid edge " << edge << ", " << steps << " timesteps, "
            << cfg.mapper().hosts().size() << " virtual hosts\n\n";

  std::cout << "physical-grid model:\n";
  core::ReferencePlatform ref(cfg);
  const double t_ref = runOn(ref, edge, steps);
  std::cout << "  execution time " << t_ref << " s\n\n";

  std::cout << "MicroGrid emulation:\n";
  core::MicroGridPlatform emu(cfg);
  const double t_emu = runOn(emu, edge, steps);
  std::cout << "  execution time " << t_emu << " s  (error "
            << util::percentError(t_ref, t_emu) << "%; paper Fig 16 saw 5-7%)\n";
  return 0;
}
