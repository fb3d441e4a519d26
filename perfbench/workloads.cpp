#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>

#include "core/launcher.h"
#include "core/microgrid_platform.h"
#include "core/reference_platform.h"
#include "core/topologies.h"
#include "econ/economy.h"
#include "fault/fault_plan.h"
#include "mc/explorer.h"
#include "mc/scenario.h"
#include "npb/npb.h"
#include "util/config.h"
#include "util/rng.h"
#include "util/strings.h"

namespace perfbench {

using namespace mg;

namespace {

/// Accumulates a pass's set-up and simulation phases, which may alternate
/// when a pass drives several platforms.
class Phases {
 public:
  explicit Phases(Pass& p) : p_(p) {}

  template <class F>
  void setup(F&& f) {
    const double t0 = wallNow();
    f();
    p_.setup_s += wallNow() - t0;
  }

  template <class F>
  void run(F&& f) {
    const Usage a = usageNow();
    f();
    const Usage b = usageNow();
    p_.run_s += b.wall_s - a.wall_s;
    p_.cpu_s += (b.user_s - a.user_s) + (b.sys_s - a.sys_s);
    p_.sys_s += b.sys_s - a.sys_s;
    p_.csw += b.csw - a.csw;
  }

 private:
  Pass& p_;
};

void fail(Pass& pass, std::string what) {
  ++pass.failed;
  pass.errors.push_back(std::move(what));
}

std::vector<grid::AllocationPart> onePerHost(const core::Platform& platform) {
  std::vector<grid::AllocationPart> parts;
  for (const auto& h : platform.mapper().hosts()) parts.push_back({h.hostname, 1});
  return parts;
}

// ------------------------------------------------------------- npb_alpha --
// Fig 10 (left): NPB EP, BT, LU, MG, IS on the 4-host Alpha cluster, each
// once on the MicroGrid (packet network, 10 ms quanta) and once on the
// reference platform. Inputs are the NPB class definitions; the seed feeds
// the MicroGrid platform's RNG streams.

Pass npbAlpha(const WorkloadEnv& env) {
  Pass pass;
  Phases ph(pass);
  Tracer& tr = *env.tracer;
  const npb::NpbClass cls = env.tiny ? npb::NpbClass::S : npb::NpbClass::A;
  const npb::Benchmark benches[] = {npb::Benchmark::EP, npb::Benchmark::BT, npb::Benchmark::LU,
                                    npb::Benchmark::MG, npb::Benchmark::IS};
  const core::VirtualGridConfig cfg = core::topologies::alphaCluster();
  for (const npb::Benchmark b : benches) {
    const std::string exe = "npb." + util::toLower(npb::benchmarkName(b));
    double seconds[2] = {0, 0};  // [MicroGrid, reference], max over ranks
    for (int ref = 0; ref < 2; ++ref) {
      grid::ExecutableRegistry registry;
      npb::ResultSink sink;
      npb::registerNpb(registry, sink);
      std::unique_ptr<core::Platform> platform;
      core::MicroGridPlatform* mgrid = nullptr;
      std::unique_ptr<core::Launcher> launcher;
      ph.setup([&] {
        {
          auto s = tr.span("core.platform_build");
          if (ref == 0) {
            core::MicroGridOptions opts;
            opts.seed = env.seed;
            auto m = std::make_unique<core::MicroGridPlatform>(cfg, opts);
            mgrid = m.get();
            platform = std::move(m);
          } else {
            platform = std::make_unique<core::ReferencePlatform>(cfg);
          }
        }
        launcher = std::make_unique<core::Launcher>(*platform, registry);
        auto s = tr.span("grid.start_services");
        launcher->startServices();
      });
      if (env.setup_only) {
        platform->shutdown();
        continue;
      }
      core::LaunchResult res;
      ph.run([&] {
        auto s = tr.span("grid.launcher_run");
        res = launcher->run(exe, npb::className(cls), onePerHost(*platform));
      });

      const char* where = ref == 0 ? "mgrid" : "pgrid";
      ++pass.attempted;
      if (!res.ok) {
        fail(pass, exe + " on " + where + ": " + res.error);
      } else if (sink.results().size() != 4 || !sink.allVerified()) {
        fail(pass, exe + " on " + where + ": " + std::to_string(sink.results().size()) +
                       " rank result(s), not all verified");
      }
      seconds[ref] = sink.maxSeconds();
      pass.digest.add(exe);
      pass.digest.add(where);
      pass.digest.add(res.virtual_seconds);
      for (const npb::KernelResult& r : sink.results()) {
        pass.digest.add(std::to_string(r.rank) + (r.verified ? "v" : "x"));
        pass.digest.add(r.seconds);
        pass.digest.add(r.checksum);
        pass.digest.add(std::to_string(r.bytes_sent) + "/" + std::to_string(r.messages_sent));
      }
      if (mgrid != nullptr) {
        addCounts(pass.counts, *mgrid);
      } else {
        addCounts(pass.counts, platform->simulator());
      }
      auto s = tr.span("core.teardown");
      platform->shutdown();
      launcher.reset();
      platform.reset();
    }
    if (seconds[1] > 0) {
      pass.model_err_pct =
          std::max(pass.model_err_pct, 100.0 * std::abs(seconds[0] - seconds[1]) / seconds[1]);
    }
  }
  return pass;
}

// ------------------------------------------------------------- tree_100k --
// flow_smoke's two-level tree (hosts under 64-port edge switches under one
// core router) on the flow model: `pairs` sender/receiver pairs, placement
// drawn from the seed, every pair crossing the core.

constexpr int kTreeFanout = 64;

core::VirtualGridConfig makeTree(int hosts) {
  constexpr double kHostOps = 500e6;
  core::VirtualGridConfig cfg;
  cfg.addRouter("core");
  const int switches = (hosts + kTreeFanout - 1) / kTreeFanout;
  for (int s = 0; s < switches; ++s) {
    const std::string sw = "sw" + std::to_string(s);
    cfg.addRouter(sw);
    cfg.addLink("up" + std::to_string(s), sw, "core", 1e9, 200e-6);
    cfg.addPhysical("pm" + std::to_string(s), kTreeFanout * kHostOps);
  }
  for (int h = 0; h < hosts; ++h) {
    const std::string ip = "10." + std::to_string(h / 65536) + "." +
                           std::to_string((h / 256) % 256) + "." + std::to_string(h % 256);
    cfg.addHost("h" + std::to_string(h), ip, kHostOps, 1 << 28,
                "pm" + std::to_string(h / kTreeFanout));
    cfg.addLink("eth" + std::to_string(h), "h" + std::to_string(h),
                "sw" + std::to_string(h / kTreeFanout), 100e6, 50e-6);
  }
  return cfg;
}

int treeHosts(const WorkloadEnv& env) { return env.tiny ? 2048 : 100000; }

/// `pairs` (src, dst) host pairs: all hosts distinct, src and dst on
/// different edge switches.
std::vector<std::pair<int, int>> drawPairs(int hosts, int pairs, std::uint64_t seed) {
  util::Rng rng(seed);
  std::set<int> used;
  auto fresh = [&]() {
    for (;;) {
      const int h = static_cast<int>(rng.below(static_cast<std::uint64_t>(hosts)));
      if (used.insert(h).second) return h;
    }
  };
  std::vector<std::pair<int, int>> out;
  while (static_cast<int>(out.size()) < pairs) {
    const int src = fresh();
    int dst = fresh();
    while (dst / kTreeFanout == src / kTreeFanout) dst = fresh();
    out.emplace_back(src, dst);
  }
  return out;
}

Pass tree100k(const WorkloadEnv& env) {
  Pass pass;
  Phases ph(pass);
  Tracer& tr = *env.tracer;
  const int hosts = treeHosts(env);
  const int pairs = env.tiny ? 16 : 64;
  constexpr int kMessages = 8;
  constexpr std::int64_t kBytes = 256 * 1024;

  auto received = std::make_shared<std::vector<std::int64_t>>(pairs, 0);
  const std::vector<std::pair<int, int>> placement = drawPairs(hosts, pairs, env.seed);
  std::unique_ptr<core::MicroGridPlatform> platform;
  ph.setup([&] {
    core::VirtualGridConfig cfg;
    {
      auto s = tr.span("core.grid_gen");
      cfg = makeTree(hosts);
    }
    {
      auto s = tr.span("core.platform_build");
      core::MicroGridOptions opts;
      opts.netmodel = net::NetModelKind::Flow;
      opts.seed = env.seed;
      platform = std::make_unique<core::MicroGridPlatform>(cfg, opts);
    }
    auto s = tr.span("core.spawn");
    for (int p = 0; p < pairs; ++p) {
      const std::string dst = "h" + std::to_string(placement[static_cast<std::size_t>(p)].second);
      const std::string src = "h" + std::to_string(placement[static_cast<std::size_t>(p)].first);
      const auto port = static_cast<std::uint16_t>(7000 + p);
      platform->spawnOn(dst, "rx." + std::to_string(p), [port, received, p](vos::HostContext& ctx) {
        auto listener = ctx.listen(port);
        auto sock = listener->accept();
        std::vector<std::uint8_t> buf(1 << 16);
        for (;;) {
          const std::size_t n = sock->recv(buf.data(), buf.size());
          if (n == 0) break;
          (*received)[static_cast<std::size_t>(p)] += static_cast<std::int64_t>(n);
        }
        sock->close();
      });
      platform->spawnOn(src, "tx." + std::to_string(p), [port, dst](vos::HostContext& ctx) {
        ctx.sleep(1e-3);  // every receiver has bound its port by now
        auto sock = ctx.connect(dst, port);
        std::vector<std::uint8_t> msg(static_cast<std::size_t>(kBytes));
        for (std::size_t i = 0; i < msg.size(); ++i) {
          msg[i] = static_cast<std::uint8_t>(i * 131 % 251);
        }
        for (int m = 0; m < kMessages; ++m) sock->send(msg.data(), msg.size());
        sock->close();
      });
    }
  });
  if (env.setup_only) {
    platform->shutdown();
    return pass;
  }
  double virtual_s = 0;
  ph.run([&] {
    auto s = tr.span("sim.run");
    virtual_s = platform->run();
  });

  pass.digest.add(virtual_s);
  for (int p = 0; p < pairs; ++p) {
    const std::int64_t got = (*received)[static_cast<std::size_t>(p)];
    pass.attempted += kMessages;
    if (got != kMessages * kBytes) {
      pass.failed += kMessages - got / kBytes;
      pass.errors.push_back("pair " + std::to_string(p) + " received " + std::to_string(got) +
                            " of " + std::to_string(kMessages * kBytes) + " byte(s)");
    }
    pass.digest.add(std::to_string(placement[static_cast<std::size_t>(p)].first) + ">" +
                    std::to_string(placement[static_cast<std::size_t>(p)].second) + ":" +
                    std::to_string(got));
  }
  addCounts(pass.counts, *platform);
  auto s = tr.span("core.teardown");
  platform->shutdown();
  platform.reset();
  return pass;
}

mg::net::Topology treeTopology(const WorkloadEnv& env) {
  return makeTree(treeHosts(env)).topology();
}

// -------------------------------------------------------------- econ_day --
// examples/workloads/million_day.ini through the broker/batch-queue economy
// (flow network, rate 1, no simulated processes), with the seed taken from
// the benchmark's argument.

std::string exampleFile(const WorkloadEnv& env, const std::string& rel) {
  return env.root + "/examples/" + rel;
}

util::Config millionDayConfig(const WorkloadEnv& env) {
  return util::Config::parseFile(exampleFile(env, "workloads/million_day.ini"));
}

Pass econDay(const WorkloadEnv& env) {
  Pass pass;
  Phases ph(pass);
  Tracer& tr = *env.tracer;
  econ::EconOptions eopts;
  econ::EconGrid grid;
  std::unique_ptr<core::MicroGridPlatform> platform;
  std::unique_ptr<econ::GridEconomy> economy;
  ph.setup([&] {
    {
      auto s = tr.span("econ.grid_gen");
      const util::Config raw = millionDayConfig(env);
      eopts.workload = econ::WorkloadSpec::fromConfig(raw);
      eopts.workload.seed = env.seed;
      if (env.tiny) eopts.workload.jobs = 20000;
      grid = econ::makeEconGrid(econ::EconGridSpec::fromConfig(raw));
    }
    {
      auto s = tr.span("core.platform_build");
      core::MicroGridOptions opts;
      opts.netmodel = net::NetModelKind::Flow;
      opts.rate_override = 1.0;  // kernel time == virtual time
      platform = std::make_unique<core::MicroGridPlatform>(grid.grid, opts);
    }
    economy = std::make_unique<econ::GridEconomy>(*platform, grid, eopts);
    auto s = tr.span("econ.arm");
    economy->arm();
  });
  if (env.setup_only) {
    economy.reset();
    platform->shutdown();
    return pass;
  }
  econ::EconReport report;
  ph.run([&] {
    auto s = tr.span("econ.run");
    platform->run();
    report = economy->report();
  });

  const std::int64_t jobs = eopts.workload.jobs;
  pass.attempted = jobs;
  pass.failed = report.failed;
  if (report.submitted != jobs) {
    pass.errors.push_back("submitted " + std::to_string(report.submitted) + " of " +
                          std::to_string(jobs) + " job(s)");
  }
  const std::int64_t accounted = report.completed + report.failed + report.rejected_budget +
                                 report.rejected_unplaceable;
  if (accounted != report.submitted) {
    pass.failed += std::llabs(report.submitted - accounted);
    pass.errors.push_back("job conservation: submitted " + std::to_string(report.submitted) +
                          " != completed + failed + rejected " + std::to_string(accounted));
  }
  if (report.failed > 0) {
    pass.errors.push_back(std::to_string(report.failed) + " job(s) exhausted their resubmits");
  }
  pass.digest.add(report.render());
  addCounts(pass.counts, *platform);
  auto s = tr.span("core.teardown");
  economy.reset();
  platform->shutdown();
  platform.reset();
  return pass;
}

mg::net::Topology econTopology(const WorkloadEnv& env) {
  return econ::makeEconGrid(econ::EconGridSpec::fromConfig(millionDayConfig(env)))
      .grid.topology();
}

// --------------------------------------------------------- explore_alpha --
// `mgrun --config alpha4.ini --explore alpha4_explore.ini --exe npb.ep
// --args S --parts vm0.ucsd.edu:1,vm1.ucsd.edu:1`: every fault schedule
// composable from the candidate menu, replayed from scratch and checked
// against the invariants. The seed feeds each replay's platform RNG (the
// lossy-link candidate draws from it).

Pass exploreAlpha(const WorkloadEnv& env) {
  Pass pass;
  Tracer& tr = *env.tracer;
  const Usage start = usageNow();
  Usage setup_end;
  std::vector<double> factory_calls;  // wallNow() at each factory call

  const util::Config grid_raw = util::Config::parseFile(exampleFile(env, "grids/alpha4.ini"));
  auto spec = mc::Explorer::parseSpec(
      util::Config::parseFile(exampleFile(env, "grids/alpha4_explore.ini")));
  if (env.tiny) spec.options.budget = 12;
  spec.options.base = fault::FaultPlan::fromConfig(grid_raw);

  auto sink = std::make_shared<npb::ResultSink>();
  mc::LauncherScenarioSpec lspec;
  lspec.grid = core::VirtualGridConfig::fromConfig(grid_raw);
  lspec.config_name = "mgrun";
  lspec.executable = "npb.ep";
  lspec.arguments = "S";
  lspec.parts = {{"vm0.ucsd.edu", 1}, {"vm1.ucsd.edu", 1}};
  lspec.max_resubmits = 2;
  lspec.platform.seed = env.seed;
  lspec.registrar = [sink](grid::ExecutableRegistry& r) { npb::registerNpb(r, *sink); };
  mc::ScenarioFactory inner = mc::launcherScenario(std::move(lspec));
  if (env.setup_only) {
    // What explore() does first: build the probe instance from the base plan.
    const std::unique_ptr<mc::ScenarioRun> probe = inner(spec.options.base);
    pass.setup_s = wallNow() - start.wall_s;
    return pass;
  }

  // The explorer builds one probe instance, then one instance per schedule;
  // a replay lasts from its factory call to the next one (or the end).
  // Counters are read when the invariant checker asks for the completed
  // work, i.e. after the replay drained and before the platform dies.
  auto factory = [&](const fault::FaultPlan& plan) {
    factory_calls.push_back(wallNow());
    std::unique_ptr<mc::ScenarioRun> run;
    {
      auto s = tr.span("mc.factory");
      run = inner(plan);
    }
    if (factory_calls.size() == 1) setup_end = usageNow();
    core::MicroGridPlatform* platform = run->platform.get();
    auto counted = std::make_shared<bool>(false);
    run->units_completed = [done = run->units_completed, platform, counted, &pass] {
      if (!*counted) {
        *counted = true;
        addCounts(pass.counts, *platform);
      }
      return done();
    };
    return run;
  };

  mc::Explorer explorer(factory, spec.candidates, spec.options);
  mc::ExploreResult res;
  {
    auto s = tr.span("mc.explore");
    res = explorer.explore();
  }
  const Usage end = usageNow();
  factory_calls.push_back(end.wall_s);
  for (std::size_t i = 1; i + 1 < factory_calls.size(); ++i) {
    pass.replay_s.push_back(factory_calls[i + 1] - factory_calls[i]);
    tr.record("mc.replay", factory_calls[i], factory_calls[i + 1]);
  }

  pass.setup_s = setup_end.wall_s - start.wall_s;
  pass.run_s = end.wall_s - setup_end.wall_s;
  pass.cpu_s = (end.user_s - setup_end.user_s) + (end.sys_s - setup_end.sys_s);
  pass.sys_s = end.sys_s - setup_end.sys_s;
  pass.csw = end.csw - setup_end.csw;
  pass.attempted = res.stats.enumerated;
  pass.failed = res.stats.violations;
  if (res.violation_found) pass.errors.push_back("violation: " + res.first_violation);
  pass.counts["mc.enumerated"] = res.stats.enumerated;
  pass.counts["mc.replayed"] = res.stats.runs;
  pass.digest.add(res.renderStats());
  return pass;
}

mg::net::Topology alphaTopology(const WorkloadEnv& env) {
  return core::VirtualGridConfig::fromConfig(
             util::Config::parseFile(exampleFile(env, "grids/alpha4.ini")))
      .topology();
}

mg::net::Topology alphaPresetTopology(const WorkloadEnv&) {
  return core::topologies::alphaCluster().topology();
}

}  // namespace

mg::econ::WorkloadSpec millionDaySpec(const WorkloadEnv& env) {
  econ::WorkloadSpec spec = econ::WorkloadSpec::fromConfig(millionDayConfig(env));
  spec.seed = env.seed;
  return spec;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"npb_alpha", npbAlpha, alphaPresetTopology},
      {"tree_100k", tree100k, treeTopology},
      {"econ_day", econDay, econTopology},
      {"explore_alpha", exploreAlpha, alphaTopology},
  };
  return all;
}

const Workload* findWorkload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
