// Fig 17 — internal validation with Autopilot sensors.
//
// The same instrumented NPB runs execute on the physical grid and the
// MicroGrid; a periodic function of each benchmark's iteration counter is
// sampled over virtual time and the traces are compared as the root mean
// square percentage difference ("skew"). Paper values: EP 3.08%, BT 2.02%,
// MG 8.33%. The MicroGrid run uses a reduced rate (theirs: 0.04) — the
// virtual-time sampler compensates exactly as the paper's 1 s vs 25 s
// sampling did.
//
// A sensor is the metrics gauge npb::progressSensor() names: the monitor
// registers it holding NaN, and a TelemetrySampler level probe reads it once
// per virtual second. NaN records no sample, so each trace starts at the
// kernel's first write.
#include <limits>

#include "bench_common.h"
#include "sim/sampler.h"

using namespace mgbench;

namespace {

/// Per-row skew bound: the largest measured skew (BT, 2.02%) plus 2 points.
constexpr double kSkewBoundPct = 4.0;

/// Run benchmark `b` on `platform`, sampling its progress sensor every
/// `interval` kernel nanoseconds (one virtual second on that platform).
util::Trace traceOf(core::Platform& platform, sim::SimTime interval, npb::Benchmark b) {
  sim::Simulator& sim = platform.simulator();
  const std::string sensor = npb::progressSensor(b);
  obs::Gauge& gauge = sim.metrics().gauge(sensor);
  gauge.set(std::numeric_limits<double>::quiet_NaN());

  grid::ExecutableRegistry registry;
  npb::ResultSink sink;
  npb::registerNpb(registry, sink);
  core::Launcher launcher(platform, registry);
  launcher.startServices();

  sim::TelemetrySampler sampler(sim, interval);
  sampler.addLevel(sensor, [&gauge](std::int64_t) { return gauge.value(); });
  sampler.start();
  auto result = launcher.run("npb." + util::toLower(npb::benchmarkName(b)), "A",
                             onePerHost(platform));
  if (!result.ok) {
    std::cerr << "FATAL: instrumented run failed: " << result.error << "\n";
    std::exit(1);
  }
  return sampler.timeline().trace(sensor);
}

}  // namespace

int main() {
  printHeader("Autopilot internal validation: sensor-trace skew", "Fig 17");

  struct Row {
    npb::Benchmark bench;
    double paper_skew;
  };
  const Row rows[] = {{npb::Benchmark::EP, 3.08}, {npb::Benchmark::BT, 2.02},
                      {npb::Benchmark::MG, 8.33}};

  util::Table table({"benchmark", "pgrid_samples", "mgrid_samples", "rms_skew_%", "paper_%"});
  bool ok = true;
  for (const Row& row : rows) {
    core::ReferencePlatform ref(core::topologies::alphaCluster());
    const util::Trace ref_trace = traceOf(ref, sim::fromSeconds(1.0), row.bench);
    core::MicroGridOptions opts;
    opts.slowdown = 4.0;  // sample "every 25 seconds" in emulation terms
    core::MicroGridPlatform emu(core::topologies::alphaCluster(), opts);
    const util::Trace emu_trace =
        traceOf(emu, emu.virtualTime().toKernel(1.0), row.bench);
    const double skew = util::rmsPercentSkew(ref_trace, emu_trace);
    table.row() << npb::benchmarkName(row.bench) << static_cast<long long>(ref_trace.size())
                << static_cast<long long>(emu_trace.size()) << skew << row.paper_skew;
    if (!(skew <= kSkewBoundPct)) ok = false;  // a NaN skew fails too
  }
  table.print(std::cout, "Fig 17: RMS percentage skew between internal traces");
  std::cout << "Shape check: traces follow the same structure, every skew <= "
            << kSkewBoundPct << "% (paper: 2-8.3%): " << (ok ? "PASS" : "FAIL") << "\n";
  return ok ? 0 : 1;
}
