// Fig 9 + Fig 10 — NPB Class A total run times across machine
// configurations: the Alpha cluster (4 x 533 MHz, 100 Mb Ethernet) and HPVM
// (4 x PII 300 MHz, 1.2 Gb Myrinet), physical vs MicroGrid.
//
// Paper result: "the MicroGrid matches IS, LU, and MG within 2%. For EP and
// BT, the match is slightly worse, but still quite good, within 4%."
#include "bench_common.h"

using namespace mgbench;

namespace {

/// Per-benchmark error bound: the largest measured error (LU on the Alpha
/// cluster, 1.315%) plus a 1.2-point margin. Dropping the vos credit cap
/// (DESIGN.md §5) moves BT to -3.94%, past it.
constexpr double kErrorBoundPct = 2.5;

}  // namespace

int main() {
  printHeader("NPB Class A: physical grid vs MicroGrid", "Fig 9 (configs) and Fig 10");

  util::Table configs({"name", "#procs", "type_procs", "network"});
  configs.row() << "Alpha Cluster" << 4 << "DEC21164, 533 MHz" << "100Mb Ethernet";
  configs.row() << "HPVM" << 4 << "PentiumII, 300 MHz" << "1.2Gb Myrinet";
  configs.print(std::cout, "Fig 9: virtual grid configurations studied");

  const npb::Benchmark benches[] = {npb::Benchmark::EP, npb::Benchmark::BT, npb::Benchmark::LU,
                                    npb::Benchmark::MG, npb::Benchmark::IS};

  bool ok = true;
  for (int config = 0; config < 2; ++config) {
    auto makeCfg = [&] {
      return config == 0 ? core::topologies::alphaCluster() : core::topologies::hpvm();
    };
    util::Table table({"benchmark", "pgrid_s", "mgrid_s", "error_%"});
    for (auto b : benches) {
      core::ReferencePlatform ref(makeCfg());
      const double t_ref = runNpbOn(ref, b, npb::NpbClass::A, onePerHost(ref));
      core::MicroGridPlatform emu(makeCfg());
      const double t_emu = runNpbOn(emu, b, npb::NpbClass::A, onePerHost(emu));
      const double err = util::percentError(t_ref, t_emu);
      table.row() << npb::benchmarkName(b) << t_ref << t_emu << err;
      if (!(std::abs(err) <= kErrorBoundPct)) ok = false;  // a NaN error fails too
    }
    table.print(std::cout, config == 0 ? "Fig 10 (left): NPB Class A on the Alpha cluster"
                                       : "Fig 10 (right): NPB Class A on HPVM");
  }
  std::cout << "Shape check: MicroGrid tracks the physical grid within " << kErrorBoundPct
            << "% on\nevery benchmark (paper: 2-4% on real hardware): " << (ok ? "PASS" : "FAIL")
            << "\n";
  return ok ? 0 : 1;
}
