// Fig 15 — total run times varying emulation rates.
//
// "The MicroGrid can be run at a variety of actual speeds, yet yield
// identical results in virtual Grid time." We run NPB Class A at 1x/2x/4x/8x
// slowdown and report virtual-time results normalized to 1x, plus the
// emulation (wall-clock) cost that buys the fidelity. (Class A, like the
// paper's runs: compute phases span many scheduler quanta, so the Fig 4
// credit rule's burst behaviour does not distort the comparison — see
// DESIGN.md §5.)
#include "bench_common.h"

using namespace mgbench;

namespace {

/// Bound on |ratio - 1| at every rate: the largest measured deviation (MG at
/// 4x, ratio 0.9953) plus a margin of about half a point. Dropping the vos
/// credit cap (DESIGN.md §5) moves LU to 0.775, far past it.
constexpr double kRatioBound = 0.01;

}  // namespace

int main() {
  printHeader("Virtual-time invariance across emulation rates", "Fig 15");

  const npb::Benchmark benches[] = {npb::Benchmark::MG, npb::Benchmark::BT, npb::Benchmark::LU,
                                    npb::Benchmark::EP};
  const double slowdowns[] = {1, 2, 4, 8};

  util::Table table(
      {"benchmark", "1x", "2x", "4x", "8x", "virtual_s@1x", "emulation_s@8x"});
  bool ok = true;
  for (auto b : benches) {
    std::vector<double> times;
    double emu_cost_8x = 0;
    for (double s : slowdowns) {
      core::MicroGridOptions opts;
      opts.slowdown = s;
      core::MicroGridPlatform emu(core::topologies::alphaCluster(), opts);
      times.push_back(runNpbOn(emu, b, npb::NpbClass::A, onePerHost(emu)));
      if (s == 8) emu_cost_8x = emu.emulationNow();
    }
    table.row() << npb::benchmarkName(b) << 1.0 << times[1] / times[0] << times[2] / times[0]
                << times[3] / times[0] << times[0] << emu_cost_8x;
    for (int i = 1; i < 4; ++i) {
      const double ratio = times[static_cast<size_t>(i)] / times[0];
      if (!(std::abs(ratio - 1.0) <= kRatioBound)) ok = false;  // a NaN ratio fails too
    }
  }
  table.print(std::cout, "Fig 15: normalized virtual run time vs emulation rate");
  std::cout << "Shape check: virtual results within " << kRatioBound * 100
            << "% of the 1x run at every\nrate (paper: near-identical): " << (ok ? "PASS" : "FAIL")
            << "\n";
  return ok ? 0 : 1;
}
