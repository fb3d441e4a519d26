// Tests for the NPB mini-kernels, WaveToy, the micro-benchmarks, and the
// Autopilot instrumentation (progress sensors as metrics gauges).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <tuple>

#include "apps/microbench.h"
#include "apps/wavetoy.h"
#include "core/launcher.h"
#include "core/microgrid_platform.h"
#include "core/reference_platform.h"
#include "core/topologies.h"
#include "npb/cost_model.h"
#include "npb/npb.h"
#include "sim/sampler.h"

using namespace mg;
using core::MicroGridPlatform;
using core::ReferencePlatform;

namespace {

/// Run one benchmark with `n` ranks (one per host) on the given platform.
std::vector<npb::KernelResult> runOn(core::Platform& platform, npb::Benchmark b,
                                     npb::NpbClass cls, int n) {
  std::vector<std::string> hosts;
  for (const auto& h : platform.mapper().hosts()) hosts.push_back(h.hostname);
  hosts.resize(static_cast<size_t>(n));
  auto results = std::make_shared<std::vector<npb::KernelResult>>();
  for (int r = 0; r < n; ++r) {
    platform.spawnOn(hosts[static_cast<size_t>(r)], "rank" + std::to_string(r),
                     [=, &platform](vos::HostContext& ctx) {
                       (void)platform;
                       auto comm = vmpi::Comm::init(ctx, r, hosts);
                       results->push_back(npb::runBenchmark(b, *comm, ctx, cls));
                       comm->finalize();
                     });
  }
  platform.run();
  return *results;
}

std::vector<npb::KernelResult> runOnReference(npb::Benchmark b, npb::NpbClass cls, int n) {
  core::topologies::AlphaClusterParams params;
  params.hosts = std::max(n, 2);
  auto cfg = core::topologies::alphaCluster(params);
  ReferencePlatform platform(cfg);
  return runOn(platform, b, cls, n);
}

/// An Autopilot monitor on the simulation's timeline: registers `sensor` as
/// a metrics gauge reading NaN ("no value yet") and adds one level probe for
/// it, ticking every `interval` kernel ns. A NaN level records no sample, so
/// the trace starts at the sensor's first write.
std::unique_ptr<sim::TelemetrySampler> sensorSampler(core::Platform& platform,
                                                     const std::string& sensor,
                                                     sim::SimTime interval) {
  sim::Simulator& sim = platform.simulator();
  obs::Gauge& gauge = sim.metrics().gauge(sensor);
  gauge.set(std::numeric_limits<double>::quiet_NaN());
  auto sampler = std::make_unique<sim::TelemetrySampler>(sim, interval);
  sampler->addLevel(sensor, [&gauge](std::int64_t) { return gauge.value(); });
  return sampler;
}

}  // namespace

// -------------------------------------------------------------- cost model --

TEST(CostModel, ClassAIsBiggerThanS) {
  for (auto b : {npb::Benchmark::EP, npb::Benchmark::IS, npb::Benchmark::MG, npb::Benchmark::LU,
                 npb::Benchmark::BT}) {
    const auto s = npb::costFor(b, npb::NpbClass::S);
    const auto a = npb::costFor(b, npb::NpbClass::A);
    EXPECT_GT(a.total_ops, s.total_ops) << npb::benchmarkName(b);
  }
}

TEST(CostModel, NameConversions) {
  EXPECT_EQ(npb::classFromString("A"), npb::NpbClass::A);
  EXPECT_EQ(npb::classFromString("s"), npb::NpbClass::S);
  EXPECT_THROW(npb::classFromString("Z"), mg::ParseError);
  EXPECT_EQ(npb::benchmarkFromString("mg"), npb::Benchmark::MG);
  EXPECT_THROW(npb::benchmarkFromString("cg"), mg::ParseError);
  EXPECT_EQ(npb::benchmarkName(npb::Benchmark::LU), "LU");
  EXPECT_EQ(npb::className(npb::NpbClass::A), "A");
}

// ---------------------------------------------------------------- kernels --

class NpbKernelSweep
    : public ::testing::TestWithParam<std::tuple<npb::Benchmark, int>> {};

TEST_P(NpbKernelSweep, VerifiesOnReference) {
  auto [bench, ranks] = GetParam();
  auto results = runOnReference(bench, npb::NpbClass::S, ranks);
  ASSERT_EQ(results.size(), static_cast<size_t>(ranks));
  for (const auto& r : results) {
    EXPECT_TRUE(r.verified) << npb::benchmarkName(bench) << " rank " << r.rank;
    EXPECT_GT(r.seconds, 0.0);
    EXPECT_EQ(r.nprocs, ranks);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BenchRanks, NpbKernelSweep,
    ::testing::Combine(::testing::Values(npb::Benchmark::EP, npb::Benchmark::IS,
                                         npb::Benchmark::MG, npb::Benchmark::LU,
                                         npb::Benchmark::BT),
                       ::testing::Values(1, 2, 4)),
    [](const auto& info) {
      return npb::benchmarkName(std::get<0>(info.param)) + "x" +
             std::to_string(std::get<1>(info.param));
    });

TEST(NpbKernels, DeterministicChecksums) {
  for (auto b : {npb::Benchmark::EP, npb::Benchmark::MG}) {
    auto r1 = runOnReference(b, npb::NpbClass::S, 4);
    auto r2 = runOnReference(b, npb::NpbClass::S, 4);
    EXPECT_DOUBLE_EQ(r1[0].checksum, r2[0].checksum) << npb::benchmarkName(b);
    EXPECT_DOUBLE_EQ(r1[0].seconds, r2[0].seconds) << npb::benchmarkName(b);
  }
}

TEST(NpbKernels, ChecksumIdenticalAcrossPlatforms) {
  // The same code runs on both platforms — numerics must agree exactly
  // (the MicroGrid virtualizes time, not arithmetic).
  auto cfg = core::topologies::alphaCluster();
  const auto ref = runOnReference(npb::Benchmark::MG, npb::NpbClass::S, 4);
  MicroGridPlatform mgp(cfg);
  const auto emu = runOn(mgp, npb::Benchmark::MG, npb::NpbClass::S, 4);
  ASSERT_FALSE(ref.empty());
  ASSERT_FALSE(emu.empty());
  EXPECT_DOUBLE_EQ(ref[0].checksum, emu[0].checksum);
  EXPECT_TRUE(emu[0].verified);
}

TEST(NpbKernels, ClassATakesLongerAndSendsMore) {
  const auto s = runOnReference(npb::Benchmark::MG, npb::NpbClass::S, 4);
  const auto a = runOnReference(npb::Benchmark::MG, npb::NpbClass::A, 4);
  EXPECT_GT(a[0].seconds, 5.0 * s[0].seconds);
  EXPECT_GT(a[0].bytes_sent, 5 * s[0].bytes_sent);
}

TEST(NpbKernels, EpScalesWithRanks) {
  const auto r1 = runOnReference(npb::Benchmark::EP, npb::NpbClass::S, 1);
  const auto r4 = runOnReference(npb::Benchmark::EP, npb::NpbClass::S, 4);
  // EP is embarrassingly parallel: 4 ranks ~ 4x faster.
  EXPECT_NEAR(r1[0].seconds / r4[0].seconds, 4.0, 0.4);
}

TEST(NpbKernels, GramRegistrationRunsThroughLauncher) {
  auto cfg = core::topologies::alphaCluster();
  ReferencePlatform platform(cfg);
  grid::ExecutableRegistry registry;
  npb::ResultSink sink;
  npb::registerNpb(registry, sink);
  core::Launcher launcher(platform, registry);
  launcher.startServices();
  auto result = launcher.run("npb.ep", "S", {{"vm0.ucsd.edu", 1},
                                             {"vm1.ucsd.edu", 1},
                                             {"vm2.ucsd.edu", 1},
                                             {"vm3.ucsd.edu", 1}});
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(sink.results().size(), 4u);
  EXPECT_TRUE(sink.allVerified());
  EXPECT_GT(sink.maxSeconds(), 0.0);
}

// ---------------------------------------------------------------- wavetoy --

TEST(WaveToy, RunsAndConservesEnergy) {
  core::topologies::AlphaClusterParams params;
  auto cfg = core::topologies::alphaCluster(params);
  ReferencePlatform platform(cfg);
  std::vector<std::string> hosts;
  for (const auto& h : platform.mapper().hosts()) hosts.push_back(h.hostname);
  auto results = std::make_shared<std::vector<apps::WaveToyResult>>();
  for (int r = 0; r < 4; ++r) {
    platform.spawnOn(hosts[static_cast<size_t>(r)], "wt" + std::to_string(r),
                     [=](vos::HostContext& ctx) {
                       auto comm = vmpi::Comm::init(ctx, r, hosts);
                       apps::WaveToyParams p;
                       p.grid_edge = 50;
                       p.timesteps = 20;
                       results->push_back(apps::runWaveToy(*comm, ctx, p));
                       comm->finalize();
                     });
  }
  platform.run();
  ASSERT_EQ(results->size(), 4u);
  for (const auto& r : *results) EXPECT_TRUE(r.verified);
}

TEST(WaveToy, LargerGridTakesLonger) {
  auto timeFor = [](int edge) {
    auto cfg = core::topologies::alphaCluster();
    ReferencePlatform platform(cfg);
    grid::ExecutableRegistry registry;
    apps::WaveToySink sink;
    apps::registerWaveToy(registry, sink);
    core::Launcher launcher(platform, registry);
    launcher.startServices();
    auto result = launcher.run("cactus.wavetoy", std::to_string(edge) + " 20",
                               {{"vm0.ucsd.edu", 1},
                                {"vm1.ucsd.edu", 1},
                                {"vm2.ucsd.edu", 1},
                                {"vm3.ucsd.edu", 1}});
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_TRUE(sink.allVerified());
    return sink.maxSeconds();
  };
  const double t50 = timeFor(50);
  const double t250 = timeFor(250);
  // 250^3 / 50^3 = 125x the work; communication dilutes the ratio.
  EXPECT_GT(t250, 20.0 * t50);
}

TEST(WaveToy, InvalidParamsThrow) {
  auto cfg = core::topologies::alphaCluster();
  ReferencePlatform platform(cfg);
  bool threw = false;
  platform.spawnOn("vm0.ucsd.edu", "w", [&](vos::HostContext& ctx) {
    auto comm = vmpi::Comm::init(ctx, 0, {"vm0.ucsd.edu"});
    apps::WaveToyParams p;
    p.grid_edge = 1;
    try {
      apps::runWaveToy(*comm, ctx, p);
    } catch (const mg::UsageError&) {
      threw = true;
    }
    comm->finalize();
  });
  platform.run();
  EXPECT_TRUE(threw);
}

TEST(WaveToy, MalformedJobArgumentsFailNamingTheArgument) {
  struct Case {
    const char* args;
    const char* message;
  };
  const Case cases[] = {
      {"50x 3", "parse error: cactus.wavetoy grid_edge wants an integer, got '50x'"},
      {"abc", "parse error: cactus.wavetoy grid_edge wants an integer, got 'abc'"},
      {"99999999999 3",
       "parse error: cactus.wavetoy grid_edge wants an integer, got '99999999999'"},
      {"50 3y", "parse error: cactus.wavetoy timesteps wants an integer, got '3y'"},
  };
  for (const Case& c : cases) {
    ReferencePlatform platform(core::topologies::alphaCluster());
    grid::ExecutableRegistry registry;
    apps::WaveToySink sink;
    apps::registerWaveToy(registry, sink);
    core::Launcher launcher(platform, registry);
    launcher.startServices();
    auto result = launcher.run("cactus.wavetoy", c.args, {{"vm0.ucsd.edu", 1}});
    EXPECT_FALSE(result.ok) << c.args;
    EXPECT_NE(result.error.find(c.message), std::string::npos) << c.args << ": " << result.error;
    EXPECT_TRUE(sink.results().empty()) << c.args;
  }
}

// ------------------------------------------------------------- microbench --

TEST(Microbench, MemoryProbeFindsCapacity) {
  core::VirtualGridConfig cfg;
  cfg.addPhysical("p", 533e6);
  cfg.addHost("h", "1.1.1.1", 533e6, 512 * 1024, "p");
  ReferencePlatform platform(cfg);
  std::int64_t got = 0;
  platform.spawnOn("h", "probe",
                   [&](vos::HostContext& ctx) { got = apps::memoryProbe(ctx, 1024); });
  platform.run();
  EXPECT_EQ(got, 512 * 1024 - vos::MemoryManager::kProcessOverhead);
}

TEST(Microbench, CpuReferenceTiming) {
  auto cfg = core::topologies::alphaCluster();
  ReferencePlatform platform(cfg);
  double t = 0;
  platform.spawnOn("vm0.ucsd.edu", "ref",
                   [&](vos::HostContext& ctx) { t = apps::cpuReference(ctx, 533e6 / 2); });
  platform.run();
  EXPECT_NEAR(t, 0.5, 1e-9);
}

TEST(Microbench, PingPongShapes) {
  auto cfg = core::topologies::alphaCluster();
  ReferencePlatform platform(cfg);
  std::vector<std::string> hosts = {"vm0.ucsd.edu", "vm1.ucsd.edu"};
  auto points = std::make_shared<std::vector<apps::PingPongPoint>>();
  for (int r = 0; r < 2; ++r) {
    platform.spawnOn(hosts[static_cast<size_t>(r)], "pp" + std::to_string(r),
                     [=](vos::HostContext& ctx) {
                       auto comm = vmpi::Comm::init(ctx, r, hosts);
                       auto pts = apps::pingPong(*comm, {64, 4096, 262144});
                       if (r == 0) *points = pts;
                       comm->finalize();
                     });
  }
  platform.run();
  ASSERT_EQ(points->size(), 3u);
  // Latency grows with size; bandwidth grows toward saturation.
  EXPECT_LT((*points)[0].latency_seconds, (*points)[2].latency_seconds);
  EXPECT_LT((*points)[0].bandwidth_mbytes_s, (*points)[2].bandwidth_mbytes_s);
  EXPECT_LT((*points)[2].bandwidth_mbytes_s, 12.5);  // under the 100 Mb/s wire
}

// -------------------------------------------------------------- autopilot --

TEST(Autopilot, SamplerRecordsPeriodically) {
  auto cfg = core::topologies::alphaCluster();
  ReferencePlatform platform(cfg);
  platform.spawnOn("vm0.ucsd.edu", "app", [&](vos::HostContext& ctx) {
    obs::Gauge& sensor = ctx.simulator().metrics().gauge("app.progress");
    for (int i = 0; i < 10; ++i) {
      sensor.set(i % 4);
      ctx.sleep(1.0);
    }
  });
  auto sampler = sensorSampler(platform, "app.progress", sim::kSecond);
  sampler->start();
  platform.run();
  const util::Trace trace = sampler->timeline().trace("app.progress");
  EXPECT_GE(trace.size(), 8u);
  // Samples arrive on the virtual-second grid.
  EXPECT_NEAR(trace[1].first - trace[0].first, 1.0, 1e-6);
}

TEST(Autopilot, NpbSensorBoardPublishesProgress) {
  auto cfg = core::topologies::alphaCluster();
  const std::string sensor = npb::progressSensor(npb::Benchmark::EP);
  EXPECT_EQ(sensor, "npb.sensor.EP.progress");
  ReferencePlatform platform(cfg);
  obs::Gauge& gauge = platform.simulator().metrics().gauge(sensor);
  gauge.set(std::numeric_limits<double>::quiet_NaN());
  auto results = runOn(platform, npb::Benchmark::EP, npb::NpbClass::S, 2);
  EXPECT_FALSE(std::isnan(gauge.value()));
  // Nobody monitoring: the kernel publishes nothing and registers nothing.
  ReferencePlatform quiet(cfg);
  runOn(quiet, npb::Benchmark::EP, npb::NpbClass::S, 2);
  EXPECT_EQ(quiet.simulator().metrics().findGauge(sensor), nullptr);
}

TEST(Autopilot, Fig17StyleSkewIsSmall) {
  // Sample the same deterministic app on both platforms and compare traces
  // with the paper's RMS metric — the internal-validation methodology.
  // The sampler ticks every 0.5 virtual seconds on each platform.
  auto traceOn = [](core::Platform& platform, sim::SimTime interval) {
    platform.spawnOn("vm0.ucsd.edu", "app", [](vos::HostContext& ctx) {
      // A slowly varying monitored variable (period >> sample interval);
      // fast sawtooths would alias small timing shifts into large value
      // differences.
      obs::Gauge& sensor = ctx.simulator().metrics().gauge("app.v");
      for (int i = 0; i < 40; ++i) {
        sensor.set((i / 4) % 5);
        ctx.compute(533e6 * 0.5);  // 0.5 virtual seconds
      }
    });
    auto sampler = sensorSampler(platform, "app.v", interval);
    sampler->start();
    platform.run();
    return sampler->timeline().trace("app.v");
  };
  auto cfg = core::topologies::alphaCluster();
  ReferencePlatform ref(cfg);
  auto ref_trace = traceOn(ref, sim::fromSeconds(0.5));
  MicroGridPlatform emu(cfg);
  auto emu_trace = traceOn(emu, emu.virtualTime().toKernel(0.5));
  ASSERT_GE(ref_trace.size(), 10u);
  ASSERT_GE(emu_trace.size(), 10u);
  const double skew = util::rmsPercentSkew(ref_trace, emu_trace);
  EXPECT_LT(skew, 15.0);  // the paper saw 2-8% on smoother workloads
}
