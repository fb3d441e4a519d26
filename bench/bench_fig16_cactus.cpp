// Fig 16 — CACTUS WaveToy on the modeled Alpha cluster, physical grid vs
// MicroGrid, for grid edges 50 and 250.
//
// Paper result: "These results show excellent match, within 5 to 7%."
#include "bench_common.h"

using namespace mgbench;

namespace {

/// Per-size error bound: the largest measured error (edge 50, -0.83%) plus
/// a 1.2-point margin.
constexpr double kErrorBoundPct = 2.0;

}  // namespace

int main() {
  printHeader("CACTUS WaveToy: physical grid vs MicroGrid", "Fig 16");

  util::Table table({"grid_edge", "pgrid_s", "mgrid_s", "error_%"});
  bool ok = true;
  for (int edge : {50, 250}) {
    core::ReferencePlatform ref(core::topologies::alphaCluster());
    const double t_ref = runWaveToyOn(ref, edge, 60, onePerHost(ref));
    core::MicroGridPlatform emu(core::topologies::alphaCluster());
    const double t_emu = runWaveToyOn(emu, edge, 60, onePerHost(emu));
    const double err = util::percentError(t_ref, t_emu);
    table.row() << edge << t_ref << t_emu << err;
    if (!(std::abs(err) <= kErrorBoundPct)) ok = false;  // a NaN error fails too
  }
  table.print(std::cout, "Fig 16: WaveToy execution time vs grid size");
  std::cout << "Shape check: MicroGrid within " << kErrorBoundPct
            << "% of the physical grid on both\nproblem sizes (paper: 5-7%): "
            << (ok ? "PASS" : "FAIL") << "\n";
  return ok ? 0 : 1;
}
