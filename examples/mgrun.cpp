// mgrun — command-line driver: run a packaged workload on a virtual Grid
// described by a config file, on either platform.
//
//   $ ./examples/mgrun --list-executables
//   $ ./examples/mgrun --config examples/grids/alpha4.ini --exe npb.mg --args A --parts vm0.ucsd.edu:1,vm1.ucsd.edu:1
//   $ ./examples/mgrun --platform pgrid --exe cactus.wavetoy --args "50 60"
//
// Options:
//   --config FILE      virtual-grid description (default: Alpha cluster preset)
//   --platform P       mgrid (default) or pgrid (reference model)
//   --exe NAME         registered executable (see --list-executables)
//   --args "..."       arguments passed to the job
//   --parts H:N,...    allocation parts (default: one rank per host)
//   --quantum MS       scheduler quantum in milliseconds (default 10; mgrid
//                      only)
//   --slowdown N       run the emulation N times slower (default 1; mgrid
//                      only)
//   --netmodel M       network model (mgrid only): packet (default, per-hop
//                      store-and-forward), flow (max-min fair fluid flows,
//                      one event per flow state change — orders of magnitude
//                      fewer events on large grids), or hybrid (flows by
//                      default, packet detail for the connections
//                      --netmodel-detail names)
//   --netmodel-detail P,P,...  hybrid escalation selectors: host:GLOB (or a
//                      bare hostname glob), port:N, port:LO-HI; repeatable
//                      (mgrid only)
//   --faults FILE      fault schedule ([fault ...] sections; mgrid only).
//                      [fault ...] sections in --config are picked up too.
//   --explore FILE     model-checking mode (mgrid only): FILE
//                      holds [explore] options and [candidate ...] fault
//                      sections (DESIGN.md §11). Instead of one run, every
//                      fault schedule composable from the candidates is
//                      replayed and checked against the simulator's
//                      invariants; [fault ...] sections from --config /
//                      --faults are injected in every schedule. Prints the
//                      branch log and stats; on a violation, prints the
//                      delta-debugged minimal reproducing fault plan as INI
//                      (replayable via --faults) and exits 3.
//   --explore-budget N stop after N schedules (overrides [explore] budget)
//   --resubmits N      resubmit a failed job up to N times (default: 2 when
//                      faults are present, else 0)
//   --metrics FMT      dump the simulator metrics snapshot after the run
//                      (FMT is table, json, or csv)
//   --timeline FILE    sample time-resolved series during the run (link
//                      utilization, CPU occupancy, queue depths, kernel
//                      rates; DESIGN.md §10) and write them after it — CSV,
//                      or the JSON document form when FILE ends in .json.
//                      Byte-identical across reruns. mgrid only.
//   --timeline-interval S  sampling interval in emulation seconds
//                      (default 0.1; needs --timeline)
//   --progress[=S]     live heartbeat on stderr every S wall seconds
//                      (default 2, S in [0.001, 86400]): sim time,
//                      sim-s/wall-s, events/sec, pending events — plus a
//                      stall watchdog that dumps kernel state when it goes
//                      quiet. stdout is byte-identical with --progress on
//                      or off.
//   --trace-out FILE   record causal spans and write a Chrome/Perfetto trace
//                      (load FILE at ui.perfetto.dev or chrome://tracing);
//                      with --timeline the sampled series ride along as
//                      counter tracks
//   --profile FMT      per-(host, layer) virtual-time profile after the run
//                      (FMT is table or json; implies span recording)
//   --verbose          print per-rank results
//
// Workload mode (the grid economy; see examples/workloads/*.ini):
//   --workload FILE    run an open-loop synthetic workload through the
//                      broker/batch-queue economy instead of one GRAM job.
//                      FILE holds [workload] and [grid] sections; the grid
//                      is generated, the run uses the flow network model,
//                      and the report is byte-identical across reruns.
//   --broker P         placement policy: cost | deadline (default) | locality
//   --jobs N           override the [workload] job count
//
// Every flag that takes a value accepts both `--flag V` and `--flag=V`
// (--progress takes only the `=S` form, since its value is optional).
// A bare (non-flag) argument is taken as the config file, so
// `mgrun --trace-out=ep.json examples/grids/alpha4.ini` works; a second
// config path, bare or by --config, is a usage error.
//
// Each mode (an mgrid run, a pgrid run, --explore, --workload) reads its own
// set of flags, listed in kFlagModes below. A flag the chosen mode does not
// read is a usage error (exit 2), never silently ignored.
#include <algorithm>
#include <bit>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <memory>
#include <string_view>

#include "apps/wavetoy.h"
#include "core/launcher.h"
#include "core/microgrid_platform.h"
#include "core/reference_platform.h"
#include "core/topologies.h"
#include "econ/economy.h"
#include "fault/fault_injector.h"
#include "mc/explorer.h"
#include "mc/scenario.h"
#include "npb/npb.h"
#include "obs/progress.h"
#include "obs/sim_profiler.h"
#include "obs/trace_export.h"
#include "sim/sampler.h"
#include "util/strings.h"

using namespace mg;

namespace {

constexpr std::int64_t kIntMin = std::numeric_limits<int>::min();
constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();

struct Options {
  std::string config_path;
  std::string platform = "mgrid";
  std::string exe = "npb.mg";
  std::string args = "S";
  std::string parts;
  double quantum_ms = 10.0;
  double slowdown = 1.0;
  std::string netmodel;  // "", "packet", "flow", or "hybrid"
  std::vector<std::string> netmodel_detail;
  std::vector<std::string> given;  // every flag given, by its --name (a bare path as --config)
  std::string faults_path;
  std::string explore_path;  // model-checking mode when non-empty
  int explore_budget = 0;    // 0 = use the [explore] section's budget
  int resubmits = -1;   // -1: default (2 with faults, 0 without)
  std::string metrics;    // "", "table", "json", or "csv"
  std::string trace_out;  // Chrome trace_event JSON output path
  std::string profile;    // "", "table", or "json"
  std::string timeline_out;          // time-series output path ("" = off)
  double timeline_interval_s = 0.1;  // sampling interval (emulation seconds)
  double progress_s = 0;             // heartbeat interval; 0 = no monitor
  bool verbose = false;
  bool list = false;
  std::string workload_path;  // economy mode when non-empty
  std::string broker;         // "", "cost", "deadline", or "locality"
  std::int64_t jobs = 0;      // 0 = use the [workload] section's count
};

Options parseArgs(int argc, char** argv) {
  Options opt;
  auto setConfig = [&opt](std::string path) {
    if (!opt.config_path.empty()) {
      throw mg::UsageError(util::format("two config paths given: '%s' and '%s'",
                                        opt.config_path.c_str(), path.c_str()));
    }
    opt.config_path = std::move(path);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      opt.given.emplace_back("--config");
      setConfig(arg);
      continue;
    }
    // Every value flag takes "--flag V" and "--flag=V"; split at the first '='.
    const std::size_t eq = arg.find('=');
    const bool inline_value = eq != std::string::npos;
    const std::string flag = arg.substr(0, eq);
    opt.given.push_back(flag);
    auto value = [&]() -> std::string {
      if (inline_value) return arg.substr(eq + 1);
      if (i + 1 >= argc) throw mg::UsageError("missing value for " + flag);
      return argv[++i];
    };
    auto noValue = [&] {
      if (inline_value) throw mg::UsageError(flag + " takes no value");
    };
    if (flag == "--config") {
      setConfig(value());
    } else if (flag == "--platform") {
      opt.platform = value();
      if (opt.platform != "mgrid" && opt.platform != "pgrid") {
        throw mg::UsageError("--platform must be mgrid or pgrid");
      }
    } else if (flag == "--exe") {
      opt.exe = value();
    } else if (flag == "--args") {
      opt.args = value();
    } else if (flag == "--parts") {
      opt.parts = value();
    } else if (flag == "--quantum") {
      opt.quantum_ms = util::flagDouble(flag, value());
    } else if (flag == "--slowdown") {
      opt.slowdown = util::flagDouble(flag, value());
    } else if (flag == "--netmodel") {
      opt.netmodel = value();
    } else if (flag == "--netmodel-detail") {
      for (const auto& p : util::splitTrim(value(), ',')) opt.netmodel_detail.push_back(p);
    } else if (flag == "--faults") {
      opt.faults_path = value();
    } else if (flag == "--explore") {
      opt.explore_path = value();
    } else if (flag == "--explore-budget") {
      opt.explore_budget = static_cast<int>(util::flagInt(flag, value(), 1, kIntMax));
    } else if (flag == "--resubmits") {
      opt.resubmits = static_cast<int>(util::flagInt(flag, value(), 0, kIntMax));
    } else if (flag == "--metrics") {
      opt.metrics = value();
      if (opt.metrics != "table" && opt.metrics != "json" && opt.metrics != "csv") {
        throw mg::UsageError("--metrics must be table, json, or csv");
      }
    } else if (flag == "--trace-out") {
      opt.trace_out = value();
    } else if (flag == "--timeline") {
      opt.timeline_out = value();
    } else if (flag == "--timeline-interval") {
      opt.timeline_interval_s =
          util::flagDouble(flag, value(), sim::kTickSeconds, sim::kMaxSeconds);
    } else if (flag == "--progress") {
      // The value is optional, so only the "=S" form carries one.
      opt.progress_s = inline_value ? util::flagDouble(flag, value(), obs::kMinProgressInterval,
                                                       obs::kMaxProgressInterval)
                                    : 2.0;
    } else if (flag == "--profile") {
      opt.profile = value();
      if (opt.profile != "table" && opt.profile != "json") {
        throw mg::UsageError("--profile must be table or json");
      }
    } else if (flag == "--workload") {
      opt.workload_path = value();
    } else if (flag == "--broker") {
      opt.broker = value();
    } else if (flag == "--jobs") {
      opt.jobs = util::flagInt(flag, value(), 1);
    } else if (flag == "--verbose") {
      noValue();
      opt.verbose = true;
    } else if (flag == "--list-executables") {
      noValue();
      opt.list = true;
    } else {
      throw mg::UsageError("unknown flag " + arg + " (see the header of mgrun.cpp)");
    }
  }
  return opt;
}

// The four modes, as bits of the set of modes that read a flag.
enum Mode : unsigned { kMgrid = 1, kPgrid = 2, kExplore = 4, kWorkload = 8 };
constexpr const char* kModeNames[] = {"an mgrid run", "a pgrid run", "--explore", "--workload"};
constexpr unsigned kGridJob = kMgrid | kPgrid | kExplore;  // one job on a config's grid

struct FlagModes {
  std::string_view flag;
  unsigned modes;
};
constexpr FlagModes kFlagModes[] = {
    {"--config", kGridJob},
    {"--platform", kGridJob},
    {"--exe", kGridJob},
    {"--args", kGridJob},
    {"--parts", kGridJob},
    {"--resubmits", kGridJob},
    {"--quantum", kMgrid | kExplore},
    {"--slowdown", kMgrid | kExplore},
    {"--netmodel", kMgrid | kExplore},
    {"--netmodel-detail", kMgrid | kExplore},
    {"--faults", kMgrid | kExplore},
    {"--explore", kExplore},
    {"--explore-budget", kExplore},
    {"--metrics", kMgrid | kPgrid | kWorkload},
    {"--timeline", kMgrid | kWorkload},
    {"--timeline-interval", kMgrid | kWorkload},
    {"--progress", kMgrid | kPgrid | kWorkload},
    {"--trace-out", kMgrid | kPgrid},
    {"--profile", kMgrid | kPgrid},
    {"--verbose", kMgrid | kPgrid},
    {"--workload", kWorkload},
    {"--broker", kWorkload},
    {"--jobs", kWorkload},
    {"--list-executables", kGridJob | kWorkload},
};

Mode modeOf(const Options& opt) {
  if (!opt.workload_path.empty()) return kWorkload;
  if (!opt.explore_path.empty()) return kExplore;
  return opt.platform == "pgrid" ? kPgrid : kMgrid;
}

/// Reject the first flag given that `mode` does not read, naming the modes
/// that do, and a --timeline-interval with no timeline to sample.
void checkFlagsFor(Mode mode, const Options& opt) {
  for (const std::string& flag : opt.given) {
    const auto* spec = std::ranges::find(kFlagModes, flag, &FlagModes::flag);
    if (spec->modes & mode) continue;
    std::vector<std::string> readers;
    for (unsigned m = 0; m < std::size(kModeNames); ++m) {
      if (spec->modes & (1u << m)) readers.emplace_back(kModeNames[m]);
    }
    throw mg::UsageError(util::format(
        "%s is not read by %s (it applies to %s)", flag.c_str(),
        kModeNames[std::countr_zero(static_cast<unsigned>(mode))],
        util::join(readers, ", ").c_str()));
  }
  if (opt.timeline_out.empty() && std::ranges::count(opt.given, "--timeline-interval") > 0) {
    throw mg::UsageError("--timeline-interval needs --timeline");
  }
}

/// The emulation options an mgrid run and --explore share.
core::MicroGridOptions mgridOptions(const Options& opt) {
  core::MicroGridOptions mopts;
  mopts.quantum = sim::fromSeconds(opt.quantum_ms * 1e-3);
  mopts.slowdown = opt.slowdown;
  if (!opt.netmodel.empty()) mopts.netmodel = net::parseNetModelKind(opt.netmodel);
  if (!opt.netmodel_detail.empty() && mopts.netmodel != net::NetModelKind::Hybrid) {
    throw mg::UsageError("--netmodel-detail needs --netmodel hybrid");
  }
  mopts.netmodel_detail = opt.netmodel_detail;
  return mopts;
}

void printMetrics(obs::MetricsRegistry& metrics, const std::string& fmt) {
  if (fmt == "json") {
    std::cout << metrics.snapshotJson() << "\n";
  } else if (fmt == "csv") {
    std::cout << metrics.snapshotCsv();
  } else if (fmt == "table") {
    metrics.snapshotTable().print(std::cout, "metrics");
  }
}

void writeTimeline(const sim::TelemetrySampler& sampler, const std::string& path) {
  const obs::TimeSeriesRecorder& timeline = sampler.timeline();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw mg::UsageError("cannot open --timeline file " + path);
  const bool json = path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  out << (json ? timeline.json() : timeline.csv());
  std::cout << "wrote timeline (" << timeline.seriesCount() << " series, "
            << timeline.sampleCount() << " samples";
  if (sampler.droppedProbes() > 0) {
    std::cout << ", " << sampler.droppedProbes() << " probe(s) dropped past the cap";
  }
  std::cout << ") to " << path << "\n";
}

std::vector<grid::AllocationPart> parseParts(const std::string& spec,
                                             const core::VirtualGridConfig& cfg) {
  std::vector<grid::AllocationPart> parts;
  if (spec.empty()) {
    for (const auto& h : cfg.mapper().hosts()) parts.push_back({h.hostname, 1});
  } else {
    for (const auto& item : util::splitTrim(spec, ',')) {
      const auto colon = item.rfind(':');
      if (colon == std::string::npos) throw mg::UsageError("--parts wants host:count");
      parts.push_back({item.substr(0, colon),
                       static_cast<int>(util::flagInt("--parts", item.substr(colon + 1),
                                                      kIntMin, kIntMax))});
    }
  }
  return parts;
}

std::unique_ptr<obs::ProgressMonitor> startProgress(sim::Simulator& sim, double interval_s,
                                                    std::function<double()> fraction) {
  obs::ProgressOptions popts;
  popts.interval_s = interval_s;
  popts.fraction = std::move(fraction);
  auto monitor = std::make_unique<obs::ProgressMonitor>(
      sim.pulse(), sim.metrics().counter("sim.kernel.events_executed"), popts);
  monitor->start();
  return monitor;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parseArgs(argc, argv);

    grid::ExecutableRegistry registry;
    npb::ResultSink npb_sink;
    apps::WaveToySink wavetoy_sink;
    npb::registerNpb(registry, npb_sink);
    apps::registerWaveToy(registry, wavetoy_sink);
    if (opt.list) {
      std::cout << "registered executables:\n";
      for (const auto& name : registry.names()) std::cout << "  " << name << "\n";
      return 0;
    }
    const Mode mode = modeOf(opt);
    checkFlagsFor(mode, opt);

    if (mode == kWorkload) {
      // Economy mode: generate the grid, synthesize the workload, run the
      // broker/batch-queue pipeline event-driven at simulation rate 1.
      const util::Config raw = util::Config::parseFile(opt.workload_path);
      econ::EconOptions eopts;
      eopts.workload = econ::WorkloadSpec::fromConfig(raw);
      if (opt.jobs > 0) eopts.workload.jobs = opt.jobs;
      if (!opt.broker.empty()) eopts.policy = econ::parseBrokerPolicy(opt.broker);
      const econ::EconGrid grid = econ::makeEconGrid(econ::EconGridSpec::fromConfig(raw));

      core::MicroGridOptions mopts;
      mopts.netmodel = net::NetModelKind::Flow;
      mopts.rate_override = 1.0;  // kernel time == virtual time
      core::MicroGridPlatform platform(grid.grid, mopts);
      std::cout << "grid economy: " << grid.clusters.size() << " cluster(s), "
                << eopts.workload.jobs << " job(s), policy "
                << econ::brokerPolicyName(eopts.policy) << ", seed " << eopts.workload.seed
                << "\n";

      econ::GridEconomy economy(platform, grid, eopts);
      economy.arm();

      std::unique_ptr<sim::TelemetrySampler> sampler;
      if (!opt.timeline_out.empty()) {
        sampler = std::make_unique<sim::TelemetrySampler>(
            platform.simulator(), sim::fromSeconds(opt.timeline_interval_s));
        platform.registerTelemetry(*sampler);
        economy.registerTelemetry(*sampler);
        sampler->start();
      }
      std::unique_ptr<obs::ProgressMonitor> monitor;
      if (opt.progress_s > 0) {
        const obs::Counter& completed =
            platform.simulator().metrics().counter("econ.jobs.completed");
        const double total = static_cast<double>(eopts.workload.jobs);
        monitor = startProgress(platform.simulator(), opt.progress_s,
                                [&completed, total]() -> double {
                                  return total > 0 ? static_cast<double>(completed.value()) / total
                                                   : -1.0;
                                });
      }

      platform.run();
      if (monitor) monitor->stop();
      std::cout << economy.report().render();
      printMetrics(platform.simulator().metrics(), opt.metrics);
      if (sampler) {
        sampler->finish();
        writeTimeline(*sampler, opt.timeline_out);
      }
      return 0;
    }

    fault::FaultPlan plan;
    core::VirtualGridConfig cfg = core::topologies::alphaCluster();
    if (!opt.config_path.empty()) {
      const util::Config raw = util::Config::parseFile(opt.config_path);
      cfg = core::VirtualGridConfig::fromConfig(raw);
      plan.merge(fault::FaultPlan::fromConfig(raw));
    }
    if (!opt.faults_path.empty()) plan.merge(fault::FaultPlan::fromFile(opt.faults_path));

    if (mode == kExplore) {
      // Model-checking mode: enumerate and replay every fault schedule
      // composable from the [candidate ...] menu, invariants checked per
      // branch. Each schedule rebuilds the platform from scratch.
      if (opt.platform != "mgrid") throw mg::UsageError("--explore needs --platform mgrid");
      auto spec = mc::Explorer::parseSpec(util::Config::parseFile(opt.explore_path));
      if (opt.explore_budget > 0) spec.options.budget = opt.explore_budget;
      spec.options.base = plan;  // fixed faults ride along in every schedule

      mc::LauncherScenarioSpec lspec;
      lspec.grid = cfg;
      lspec.config_name = "mgrun";
      lspec.executable = opt.exe;
      lspec.arguments = opt.args;
      lspec.parts = parseParts(opt.parts, cfg);
      lspec.max_resubmits = opt.resubmits >= 0 ? opt.resubmits : 2;
      lspec.platform = mgridOptions(opt);
      lspec.registrar = [&npb_sink, &wavetoy_sink](grid::ExecutableRegistry& r) {
        npb::registerNpb(r, npb_sink);
        apps::registerWaveToy(r, wavetoy_sink);
      };

      std::cout << "exploring " << spec.candidates.size() << " candidate fault(s) for "
                << opt.exe << " '" << opt.args << "'";
      if (spec.options.budget > 0) std::cout << ", budget " << spec.options.budget;
      std::cout << "\n";
      mc::Explorer explorer(mc::launcherScenario(std::move(lspec)), spec.candidates,
                            spec.options);
      const mc::ExploreResult res = explorer.explore();
      for (const auto& line : res.branch_log) std::cout << line << "\n";
      std::cout << res.renderStats();
      if (res.violation_found) {
        std::cout << "violation: " << res.first_violation << "\n"
                  << "minimal reproducing fault plan (replay with --faults):\n"
                  << res.minimal_plan.toIni();
        return 3;
      }
      std::cout << "no invariant violations found\n";
      return 0;
    }

    std::unique_ptr<core::Platform> platform;
    core::MicroGridPlatform* mgrid = nullptr;
    if (mode == kMgrid) {
      const core::MicroGridOptions mopts = mgridOptions(opt);
      auto p = std::make_unique<core::MicroGridPlatform>(cfg, mopts);
      std::cout << "MicroGrid platform, simulation rate " << p->rate() << ", quantum "
                << opt.quantum_ms << " ms\n";
      if (mopts.netmodel != net::NetModelKind::Packet) {
        std::cout << "network model: " << net::netModelKindName(mopts.netmodel);
        if (!mopts.netmodel_detail.empty()) {
          std::cout << ", detail: " << util::join(mopts.netmodel_detail, ",");
        }
        std::cout << "\n";
      }
      mgrid = p.get();
      platform = std::move(p);
    } else {
      platform = std::make_unique<core::ReferencePlatform>(cfg);
      std::cout << "reference (physical grid) platform\n";
    }

    std::vector<grid::AllocationPart> parts = parseParts(opt.parts, cfg);

    if (!opt.trace_out.empty() || !opt.profile.empty()) {
      platform->simulator().spans().setEnabled(true);
    }

    core::Launcher launcher(*platform, registry);
    launcher.startServices(&cfg, "mgrun");

    std::unique_ptr<fault::FaultInjector> injector;
    if (!plan.empty()) {
      if (mgrid == nullptr) {
        throw mg::UsageError("fault injection needs --platform mgrid");
      }
      injector = std::make_unique<fault::FaultInjector>(*mgrid, plan);
      injector->onHostCrash([&launcher](const std::string& h) { launcher.markHostDown(h); });
      injector->onHostRestart([&launcher](const std::string& h) { launcher.markHostUp(h); });
      injector->arm();
      std::cout << "fault plan armed: " << plan.size() << " event(s)\n";
    }
    core::LaunchOptions lopts;
    lopts.max_resubmits = opt.resubmits >= 0 ? opt.resubmits : (plan.empty() ? 0 : 2);
    launcher.setLaunchOptions(lopts);

    std::unique_ptr<sim::TelemetrySampler> sampler;
    if (!opt.timeline_out.empty()) {
      sampler = std::make_unique<sim::TelemetrySampler>(
          mgrid->simulator(), sim::fromSeconds(opt.timeline_interval_s));
      mgrid->registerTelemetry(*sampler);
      sampler->start();
    }
    std::unique_ptr<obs::ProgressMonitor> monitor;
    if (opt.progress_s > 0) {
      monitor = startProgress(platform->simulator(), opt.progress_s, {});
    }

    std::cout << "submitting " << opt.exe << " '" << opt.args << "' across " << parts.size()
              << " part(s)...\n";
    const auto result = launcher.run(opt.exe, opt.args, parts);
    if (monitor) monitor->stop();
    if (sampler) sampler->finish();
    if (injector) {
      std::cout << injector->renderReport();
      if (result.resubmits > 0) {
        std::cout << "job resubmitted " << result.resubmits << " time(s); first error: "
                  << result.attempt_errors.front() << "\n";
      }
    }

    printMetrics(platform->simulator().metrics(), opt.metrics);

    if (!opt.trace_out.empty()) {
      std::ofstream out(opt.trace_out, std::ios::binary | std::ios::trunc);
      if (!out) throw mg::UsageError("cannot open --trace-out file " + opt.trace_out);
      // Sampled series ride along as Perfetto counter tracks.
      out << obs::chromeTraceJson(platform->simulator().spans(),
                                  sampler ? &sampler->timeline() : nullptr);
      std::cout << "wrote " << platform->simulator().spans().size() << " span(s) to "
                << opt.trace_out << "\n";
    }
    if (sampler) writeTimeline(*sampler, opt.timeline_out);
    if (!opt.profile.empty()) {
      const obs::SimProfiler prof(platform->simulator().spans());
      if (opt.profile == "json") {
        std::cout << prof.json() << "\n";
      } else {
        prof.table().print(std::cout, "profile");
      }
    }

    if (!result.ok) {
      std::cerr << "job failed: " << result.error << "\n";
      return 1;
    }
    std::cout << "job completed in " << result.virtual_seconds << " virtual seconds\n";
    for (const auto& r : npb_sink.results()) {
      if (opt.verbose) {
        std::cout << "  " << r.benchmark << "." << r.npb_class << " rank " << r.rank << ": "
                  << r.seconds << " s, " << r.bytes_sent << " bytes sent, "
                  << (r.verified ? "verified" : "NOT VERIFIED") << "\n";
      }
    }
    if (!npb_sink.results().empty()) {
      std::cout << "benchmark time (max over ranks): " << npb_sink.maxSeconds() << " s, "
                << (npb_sink.allVerified() ? "all ranks verified" : "VERIFICATION FAILED")
                << "\n";
      return npb_sink.allVerified() ? 0 : 1;
    }
    if (!wavetoy_sink.results().empty()) {
      std::cout << "wavetoy time (max over ranks): " << wavetoy_sink.maxSeconds() << " s, "
                << (wavetoy_sink.allVerified() ? "verified" : "VERIFICATION FAILED") << "\n";
      return wavetoy_sink.allVerified() ? 0 : 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "mgrun: " << e.what() << "\n";
    return 2;
  }
}
