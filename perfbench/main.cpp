// perfbench — the MicroGrid benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --root DIR
//             [--tiny] [--git DESC] [--trace-out FILE]
//
// Runs one workload (npb_alpha, tree_100k, econ_day, explore_alpha) in
// passes until S host seconds have gone by, each pass building its platforms
// from scratch, and reports medians over the passes. The simulation runs on
// one CPU of the inherited mask (see README: unpinned, host wake latency
// swamps the handoff-bound workloads). --trace 0 reports the end-to-end
// metrics; --trace 1 records spans around the benchmark's calls into each
// layer, cycles through traced, untraced and unpinned passes, runs the
// calibration probes, and reports the per-layer metrics instead. Every
// output line is "key: value" text except the last, which is the result
// object {"correct", "attempted", "failed", "metrics"}.
//
// Exit status: 0 when the run completed (its outputs may still be marked
// incorrect), 2 on a usage or configuration error.
#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "harness.h"
#include "obs/metrics.h"
#include "probes.h"
#include "util/error.h"
#include "util/strings.h"
#include "workloads.h"

using namespace perfbench;

namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

// The paper matched emulation to the physical runs within 4% on every NPB
// kernel (Fig 10); a larger virtual-time error is a fidelity regression.
constexpr double kModelErrLimitPct = 4.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string root = ".";
  bool tiny = false;
  std::string git = "unknown";
  std::string trace_out;
};

Options parseArgs(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw mg::UsageError("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      opt.workload = next();
    } else if (flag == "--seed") {
      opt.seed = std::stoull(next());
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(next());
    } else if (flag == "--trace") {
      opt.trace = next() != "0";
    } else if (flag == "--root") {
      opt.root = next();
    } else if (flag == "--tiny") {
      opt.tiny = true;
    } else if (flag == "--git") {
      opt.git = next();
    } else if (flag == "--trace-out") {
      opt.trace_out = next();
    } else {
      throw mg::UsageError("unknown flag " + flag);
    }
  }
  if (findWorkload(opt.workload) == nullptr) {
    throw mg::UsageError("--workload must be one of npb_alpha, tree_100k, econ_day, explore_alpha");
  }
  return opt;
}

std::string affinityList(const cpu_set_t& set) {
  std::string out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &set)) continue;
    int end = c;
    while (end + 1 < CPU_SETSIZE && CPU_ISSET(end + 1, &set)) ++end;
    if (!out.empty()) out += ",";
    out += std::to_string(c) + (end > c ? "-" + std::to_string(end) : "");
    c = end;
  }
  return out;
}

std::string provenanceJson(const Options& opt, const cpu_set_t& inherited, int pinned_cpu) {
  using mg::obs::jsonEscape;
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#else
  const std::string compiler = std::string("gcc ") + __VERSION__;
#endif
  return "{\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"affinity\": \"" + affinityList(inherited) +
         "\", \"pinned_cpu\": " + std::to_string(pinned_cpu) + ", \"build_type\": \"" +
         jsonEscape(PERFBENCH_BUILD_TYPE) + "\", \"compiler\": \"" + jsonEscape(compiler) +
         "\", \"git\": \"" + jsonEscape(opt.git) + "\"}";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Whole numbers (counts) as integers, everything else with all its digits.
std::string formatValue(double v) {
  if (!std::isfinite(v)) v = 0;
  if (v == std::floor(v) && std::abs(v) < 1e15) return std::to_string(static_cast<long long>(v));
  return mg::obs::formatDouble(v);
}

std::vector<double> field(const std::vector<Pass>& passes, double Pass::*f) {
  std::vector<double> v;
  for (const Pass& p : passes) v.push_back(p.*f);
  return v;
}

std::string countsJson(const Counts& counts) {
  std::string out = "{";
  for (const auto& [name, v] : counts) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": " + std::to_string(v);
  }
  return out + "}";
}

// A traced run cycles through three kinds of pass: traced and untraced on
// the pinned CPU (their ratio is the trace overhead), then untraced under the
// inherited affinity (its ratio to the pinned untraced pass is the unpinned
// slowdown).
enum PassKind { kTraced, kUntraced, kUnpinned };
PassKind kindOf(std::size_t pass_index) { return static_cast<PassKind>(pass_index % 3); }

std::vector<Metric> perLayer(const WorkloadEnv& env, const Workload& w,
                             const std::vector<Pass>& passes, const Tracer& tracer,
                             const cpu_set_t& inherited, double fail_frac,
                             std::vector<std::string>& notes) {
  const Counts& c = passes.front().counts;
  auto count = [&c](const char* name) {
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : static_cast<double>(it->second);
  };
  std::vector<Pass> traced, untraced, unpinned, pinned;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const PassKind k = kindOf(i);
    (k == kTraced ? traced : k == kUntraced ? untraced : unpinned).push_back(passes[i]);
    if (k != kUnpinned) pinned.push_back(passes[i]);
  }
  const double n_traced = static_cast<double>(traced.size());
  const double run_s = median(field(pinned, &Pass::run_s));
  const double run_traced = median(field(traced, &Pass::run_s));
  const double run_untraced = median(field(untraced, &Pass::run_s));
  const double run_unpinned = median(field(unpinned, &Pass::run_s));

  const double dispatch_ns = probeDispatchNs();
  const double handoff_ns = probeHandoffNs();
  double handoff_unpinned_ns = 0;
  {
    const AffinityScope unpin(inherited);
    handoff_unpinned_ns = probeHandoffNs();
  }
  const double column_ms = probeRouteColumnMs(w.topology(env));
  const double gen_ns = probeEconGenNs(millionDaySpec(env));

  const double events = count("sim.events");
  const double wakes = count("sim.wakes");
  std::vector<double> csws;
  for (const Pass& p : pinned) csws.push_back(static_cast<double>(p.csw));
  const double os_csw = median(csws);
  const double dispatch_share = ratio(events * dispatch_ns * 1e-9, run_s);
  const double handoff_share = ratio(wakes * handoff_ns * 1e-9, run_s);
  notes.push_back(mg::util::format(
      "estimate: sim.dispatch_share = sim.events (%.0f) x sim.dispatch_ns (%.2f) / run_s (%.4f)",
      events, dispatch_ns, run_s));
  notes.push_back(mg::util::format(
      "estimate: sim.handoff_share = sim.wakes (%.0f) x sim.handoff_ns (%.2f) / run_s (%.4f)"
      "; process slices from spawns, delays and timeouts are not in the base",
      wakes, handoff_ns, run_s));
  notes.push_back(mg::util::format(
      "estimate: unpinned handoff share = sim.wakes (%.0f) x sim.handoff_ns_unpinned (%.2f)"
      " / unpinned run_s (%.4f) = %.4f",
      wakes, handoff_unpinned_ns, run_unpinned,
      ratio(wakes * handoff_unpinned_ns * 1e-9, run_unpinned)));

  std::vector<double> jobs = tracer.durations("grid.launcher_run");
  double job_s = 0;
  for (const double d : jobs) job_s += d;
  job_s = ratio(job_s, static_cast<double>(jobs.size()));
  std::vector<double> replay_ms;
  for (const Pass& p : passes) {
    for (const double s : p.replay_s) replay_ms.push_back(s * 1e3);
  }
  return {
      {"sim.events", events, "count"},
      {"sim.ns_per_event", ratio(run_s * 1e9, events), "ns"},
      {"sim.heap_fallbacks", count("sim.heap_fallbacks"), "count"},
      {"sim.dispatch_ns", dispatch_ns, "ns"},
      {"sim.dispatch_share", dispatch_share, "ratio"},
      {"sim.wakes", wakes, "count"},
      {"sim.spawned", count("sim.spawned"), "count"},
      {"sim.os_csw", os_csw, "count"},
      {"sim.os_csw_per_wake", ratio(os_csw, wakes), "ratio"},
      {"sim.sys_s", median(field(pinned, &Pass::sys_s)), "s"},
      {"sim.handoff_ns", handoff_ns, "ns"},
      {"sim.handoff_share", handoff_share, "ratio"},
      {"sim.handoff_ns_unpinned", handoff_unpinned_ns, "ns"},
      {"sim.unpinned_slowdown", ratio(run_unpinned, run_untraced), "ratio"},
      {"vos.quanta", count("vos.quanta"), "count"},
      {"net.packet.sent", count("net.packet.sent"), "count"},
      {"net.packet.dropped", count("net.packet.dropped"), "count"},
      {"net.tcp.segments", count("net.tcp.segments"), "count"},
      {"net.tcp.retransmits", count("net.tcp.retransmits"), "count"},
      {"net.flow.recomputes", count("net.flow.recomputes"), "count"},
      {"net.flow.visits", count("net.flow.visits"), "count"},
      {"net.flow.visits_per_recompute",
       ratio(count("net.flow.visits"), count("net.flow.recomputes")), "ratio"},
      {"net.route.columns", count("net.route.columns"), "count"},
      {"net.route.column_ms", column_ms, "ms"},
      {"vmpi.messages", count("vmpi.messages"), "count"},
      {"vmpi.collectives", count("vmpi.collectives"), "count"},
      {"core.platform_build_s", tracer.total("core.platform_build") / n_traced, "s"},
      {"core.teardown_s", tracer.total("core.teardown") / n_traced, "s"},
      {"grid.services_s", tracer.total("grid.start_services") / n_traced, "s"},
      {"grid.job_s", job_s, "s"},
      {"grid.gram.retries", count("grid.gram.retries"), "count"},
      {"econ.jobs", count("econ.jobs"), "count"},
      {"econ.us_per_job",
       ratio(tracer.total("econ.run") / n_traced * 1e6, count("econ.jobs")), "us"},
      {"econ.backfills", count("econ.backfills"), "count"},
      {"econ.transfers", count("econ.transfers"), "count"},
      {"econ.resubmits", count("econ.resubmits"), "count"},
      {"econ.failed", count("econ.failed"), "count"},
      {"econ.gen_ns", gen_ns, "ns"},
      {"mc.enumerated", count("mc.enumerated"), "count"},
      {"mc.replayed", count("mc.replayed"), "count"},
      {"mc.replay_ratio", ratio(count("mc.replayed"), count("mc.enumerated")), "ratio"},
      {"mc.build_ms", median(tracer.durations("mc.factory")) * 1e3, "ms"},
      {"mc.replay_ms_p50", quantile(replay_ms, 0.5), "ms"},
      {"mc.replay_ms_p90", quantile(replay_ms, 0.9), "ms"},
      {"fault.injected", count("fault.injected"), "count"},
      {"obs.trace_overhead_pct", 100.0 * (ratio(run_traced, run_untraced) - 1.0), "%"},
      {"model_err_pct", passes.front().model_err_pct, "%"},
      {"fail_frac", fail_frac, "ratio"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parseArgs(argc, argv);
    const Workload& w = *findWorkload(opt.workload);
    const cpu_set_t inherited = threadAffinity();
    const int pinned_cpu = pinToCurrentCpu();
    Tracer tracer(opt.trace);
    WorkloadEnv env;
    env.root = opt.root;
    env.seed = opt.seed;
    env.tiny = opt.tiny;
    env.tracer = &tracer;

    std::cout << "perfbench: workload=" << w.name << " seed=" << opt.seed
              << " seconds=" << opt.seconds << " trace=" << (opt.trace ? 1 : 0)
              << (opt.tiny ? " size=tiny" : "") << "\n"
              << "provenance: " << provenanceJson(opt, inherited, pinned_cpu) << "\n"
              << std::flush;

    // Passes while at least half of the next one fits in the time budget; a
    // traced run needs one pass of each PassKind.
    std::vector<Pass> passes;
    double rss_mb = 0;  // high-water mark of one pass: later passes only reuse memory
    const double t0 = wallNow();
    auto another = [&] {
      const double spent = wallNow() - t0;
      return spent + 0.5 * spent / static_cast<double>(passes.size()) < opt.seconds;
    };
    do {
      const PassKind kind = opt.trace ? kindOf(passes.size()) : kUntraced;
      tracer.setRecording(kind == kTraced);
      if (kind == kUnpinned) {
        const AffinityScope unpin(inherited);
        passes.push_back(w.pass(env));
      } else {
        passes.push_back(w.pass(env));
      }
      if (passes.size() == 1) rss_mb = peakRssMb();
    } while (another() || (opt.trace && passes.size() < 3));

    // setup_s is the median over up to kSetupSamples set-ups: the passes'
    // own, then set-up-only repetitions for at most 3 host seconds, so a cold
    // first set-up cannot swing it.
    constexpr std::size_t kSetupSamples = 101;
    std::vector<double> setups = field(passes, &Pass::setup_s);
    if (!opt.trace) {
      WorkloadEnv setup_env = env;
      setup_env.setup_only = true;
      const double t_setup = wallNow();
      while (setups.size() < kSetupSamples && wallNow() - t_setup < 3.0) {
        setups.push_back(w.pass(setup_env).setup_s);
      }
    }

    bool correct = true;
    std::int64_t attempted = 0, failed = 0;
    for (std::size_t i = 0; i < passes.size(); ++i) {
      const Pass& p = passes[i];
      attempted += p.attempted;
      failed += p.failed;
      for (const auto& e : p.errors) std::cout << "check failed: pass " << i << ": " << e << "\n";
      if (!p.errors.empty()) correct = false;
      if (p.counts != passes.front().counts || p.digest.value() != passes.front().digest.value()) {
        std::cout << "check failed: pass " << i << " is not a byte-identical rerun of pass 0\n";
        correct = false;
      }
    }
    const double model_err = passes.front().model_err_pct;
    // Class S (--tiny) is not the paper's experiment; the limit is Fig 10's.
    if (!opt.tiny && model_err > kModelErrLimitPct) {
      std::cout << "check failed: model_err_pct " << model_err << " above the paper's "
                << kModelErrLimitPct << "%\n";
      correct = false;
    }

    std::vector<Metric> metrics;
    std::vector<std::string> notes;
    if (!opt.trace) {
      metrics = {
          {"setup_s", median(setups), "s"},
          {"run_s", median(field(passes, &Pass::run_s)), "s"},
          {"cpu_s", median(field(passes, &Pass::cpu_s)), "s"},
          {"peak_rss_mb", rss_mb, "MB"},
      };
    } else {
      const double fail_frac = ratio(static_cast<double>(failed), static_cast<double>(attempted));
      metrics = perLayer(env, w, passes, tracer, inherited, fail_frac, notes);
      if (!opt.trace_out.empty()) {
        std::ofstream out(opt.trace_out, std::ios::binary | std::ios::trunc);
        if (!out) throw mg::UsageError("cannot open --trace-out file " + opt.trace_out);
        out << tracer.chromeJson();
      }
    }

    std::cout << "passes: " << passes.size() << ", run_s each:";
    for (const Pass& p : passes) std::cout << " " << mg::util::format("%.4f", p.run_s);
    std::cout << "\nsetups: " << setups.size() << ", setup_s each:";
    for (const double s : setups) std::cout << " " << mg::util::format("%.5f", s);
    std::cout << "\n";
    for (const Metric& m : metrics) {
      std::printf("metric: %-30s %-22s %s\n", m.name.c_str(), formatValue(m.value).c_str(),
                  m.unit.c_str());
    }
    std::fflush(stdout);
    for (const auto& n : notes) std::cout << n << "\n";
    std::cout << "counts: " << countsJson(passes.front().counts) << "\n"
              << "model_err_pct: " << mg::obs::formatDouble(model_err) << "\n"
              << "sim_digest: " << hex64(passes.front().digest.value()) << "\n";

    std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const Metric& m = metrics[i];
      json += (i ? ", " : "") + std::string("\"") + m.name + "\": {\"value\": " +
              formatValue(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    std::cout << json << "}}\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
