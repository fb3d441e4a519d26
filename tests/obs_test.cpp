// Tests for the observability subsystem: the metrics registry, causal span
// tracing, time-resolved telemetry, and their end-to-end wiring through the
// MicroGrid platform: every layer's accounting flows into one snapshot, and
// same-seed runs produce byte-identical observability output.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "core/launcher.h"
#include "core/microgrid_platform.h"
#include "core/reference_platform.h"
#include "core/topologies.h"
#include "core/virtual_grid.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "gis/service.h"
#include "npb/npb.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/sim_profiler.h"
#include "obs/span.h"
#include "obs/timeline.h"
#include "obs/trace_export.h"
#include "sim/sampler.h"
#include "util/error.h"
#include "util/strings.h"
#include "vmpi/comm.h"

#include "test_scenarios.h"

namespace mo = mg::obs;

// --------------------------------------------------------------- registry --

TEST(Metrics, CounterCreateOrGetAndIncrement) {
  mo::MetricsRegistry reg;
  mo::Counter& a = reg.counter("layer.comp.hits");
  mo::Counter& b = reg.counter("layer.comp.hits");
  EXPECT_EQ(&a, &b);  // create-or-get returns the same instrument
  a.inc();
  b.inc(41);
  EXPECT_EQ(a.value(), 42);
  EXPECT_EQ(reg.counterValue("layer.comp.hits"), 42);
  EXPECT_EQ(reg.counterValue("no.such.counter"), 0);
}

TEST(Metrics, HandlesStayValidAcrossManyRegistrations) {
  // Instruments live in a deque: a handle resolved early must survive any
  // number of later registrations (this is the hot-path contract).
  mo::MetricsRegistry reg;
  mo::Counter& first = reg.counter("first");
  for (int i = 0; i < 1000; ++i) reg.counter(mg::util::format("c%d", i));
  first.inc(7);
  EXPECT_EQ(reg.counterValue("first"), 7);
}

TEST(Metrics, GaugeSetAndAdd) {
  mo::MetricsRegistry reg;
  mo::Gauge& g = reg.gauge("layer.comp.level");
  g.set(1.5);
  g.add(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  EXPECT_DOUBLE_EQ(reg.gaugeValue("layer.comp.level"), 3.5);
  EXPECT_DOUBLE_EQ(reg.gaugeValue("absent"), 0.0);
  EXPECT_EQ(reg.findGauge("layer.comp.level"), &g);
  EXPECT_EQ(reg.findGauge("absent"), nullptr);
  EXPECT_EQ(reg.snapshotJson().find("absent"), std::string::npos);  // lookups create nothing
}

TEST(Metrics, HistogramBoundsApplyOnlyOnCreation) {
  mo::MetricsRegistry reg;
  auto& h1 = reg.histogram("h", 0.0, 10.0, 10);
  auto& h2 = reg.histogram("h", -5.0, 5.0, 99);  // ignored: already exists
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bins(), 10);
  EXPECT_DOUBLE_EQ(h2.lo(), 0.0);
  EXPECT_EQ(reg.findHistogram("absent"), nullptr);
  ASSERT_NE(reg.findHistogram("h"), nullptr);
}

TEST(Metrics, SnapshotTableIsNameSorted) {
  mo::MetricsRegistry reg;
  reg.counter("b.count").inc(2);
  reg.gauge("a.level").set(0.5);
  reg.counter("a.count").inc(1);
  reg.histogram("c.hist", 0.0, 1.0, 4).add(0.3);
  const std::string csv = reg.snapshotTable().renderCsv();
  // Registration order was b, a-gauge, a-counter, c; the table merges all
  // three instrument kinds into one name-sorted view.
  EXPECT_EQ(csv,
            "metric,type,value\n"
            "a.count,counter,1\n"
            "a.level,gauge,0.5\n"
            "b.count,counter,2\n"
            "c.hist,histogram,1 samples\n");
}

TEST(Metrics, SnapshotJsonIsByteStable) {
  mo::MetricsRegistry reg;
  reg.counter("z.count").inc(3);
  reg.gauge("g.level").set(0.25);
  reg.histogram("h.hist", 0.0, 2.0, 2).add(1.5);
  const std::string expected =
      "{\"counters\":{\"z.count\":3},"
      "\"gauges\":{\"g.level\":0.25},"
      "\"histograms\":{\"h.hist\":{\"lo\":0,\"hi\":2,\"total\":1,\"bins\":[0,1]}}}";
  EXPECT_EQ(reg.snapshotJson(), expected);
  EXPECT_EQ(reg.snapshotJson(), expected);  // stable across repeated calls
}

TEST(Metrics, SnapshotJsonRendersNonFiniteGaugesAsNull) {
  // JSON has no NaN or infinity; a registered but unwritten sensor reads NaN.
  mo::MetricsRegistry reg;
  reg.gauge("a.nan").set(std::numeric_limits<double>::quiet_NaN());
  reg.gauge("b.pinf").set(std::numeric_limits<double>::infinity());
  reg.gauge("c.ninf").set(-std::numeric_limits<double>::infinity());
  reg.gauge("d.level").set(0.5);
  EXPECT_EQ(reg.snapshotJson(),
            "{\"counters\":{},"
            "\"gauges\":{\"a.nan\":null,\"b.pinf\":null,\"c.ninf\":null,\"d.level\":0.5},"
            "\"histograms\":{}}");
  // The table and CSV keep the printf spelling.
  EXPECT_EQ(reg.snapshotCsv(),
            "metric,type,value\n"
            "a.nan,gauge,nan\n"
            "b.pinf,gauge,inf\n"
            "c.ninf,gauge,-inf\n"
            "d.level,gauge,0.5\n");
}

TEST(Metrics, SnapshotCsvIsNameSortedAndStable) {
  mo::MetricsRegistry reg;
  reg.counter("b.count").inc(2);
  reg.gauge("a.level").set(0.5);
  reg.histogram("c.hist", 0.0, 1.0, 4).add(0.3);
  reg.histogram("c.hist", 0.0, 1.0, 4).add(0.9);
  const std::string expected =
      "metric,type,value\n"
      "a.level,gauge,0.5\n"
      "b.count,counter,2\n"
      "c.hist,histogram,2\n";
  EXPECT_EQ(reg.snapshotCsv(), expected);
  EXPECT_EQ(reg.snapshotCsv(), expected);
}

// ------------------------------------------------------------------ spans --

TEST(Spans, DisabledRecorderIsInert) {
  mo::SpanRecorder rec;
  EXPECT_EQ(rec.begin("a", "b"), 0u);
  EXPECT_EQ(rec.instant("a", "b"), 0u);
  mo::ScopedSpan s(rec, "a", "b");
  EXPECT_FALSE(s.active());
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.current(), 0u);
}

TEST(Spans, SequentialIdsAndScopedNesting) {
  mo::SpanRecorder rec;
  std::int64_t now = 100;
  rec.setTimeSource([&now] { return now; });
  rec.setEnabled(true);
  {
    mo::ScopedSpan outer(rec, "test", "outer", "hostA");
    EXPECT_EQ(outer.id(), 1u);
    EXPECT_EQ(rec.current(), 1u);
    now = 200;
    {
      mo::ScopedSpan inner(rec, "test", "inner", "hostA");
      EXPECT_EQ(inner.id(), 2u);
      EXPECT_EQ(rec.find(2)->parent, 1u);
      now = 300;
    }
    EXPECT_EQ(rec.current(), 1u);  // restored after inner closes
    EXPECT_EQ(rec.find(2)->end, 300);
  }
  EXPECT_EQ(rec.current(), 0u);
  EXPECT_EQ(rec.find(1)->parent, 0u);
  EXPECT_EQ(rec.find(1)->start, 100);
  EXPECT_EQ(rec.serializeTree(),
            "#1 parent=0 test.outer track=hostA start=100 end=300\n"
            "#2 parent=1 test.inner track=hostA start=200 end=300\n");
}

TEST(Spans, EndIsIdempotentAndAbortTrackMarksOpenSpans) {
  mo::SpanRecorder rec;
  std::int64_t now = 10;
  rec.setTimeSource([&now] { return now; });
  rec.setEnabled(true);
  const mo::SpanId done = rec.begin("test", "done", "h0");
  rec.end(done);
  const mo::SpanId doomed = rec.begin("test", "doomed", "h0");
  const mo::SpanId other = rec.begin("test", "other", "h1");
  now = 20;
  rec.abortTrack("h0", "host_crash");
  // The already-closed span keeps its original end and gains no attr; the
  // open one on h0 is closed with the aborted mark; h1 is untouched.
  EXPECT_TRUE(rec.find(done)->attrs.empty());
  EXPECT_EQ(rec.find(doomed)->end, 20);
  ASSERT_EQ(rec.find(doomed)->attrs.size(), 1u);
  EXPECT_EQ(rec.find(doomed)->attrs[0].first, "aborted");
  EXPECT_EQ(rec.find(doomed)->attrs[0].second, "host_crash");
  EXPECT_TRUE(rec.find(other)->open());
  // The RAII unwind's end() after the abort is a no-op.
  now = 30;
  rec.end(doomed);
  EXPECT_EQ(rec.find(doomed)->end, 20);
}

// ------------------------------------------------------------- end to end --

namespace {

using namespace mg;

core::VirtualGridConfig smallGrid() {
  core::VirtualGridConfig cfg;
  cfg.addPhysical("workstation", 533e6);
  cfg.addHost("vm0.example.org", "1.11.11.1", 266e6, 1ll << 30, "workstation");
  cfg.addHost("vm1.example.org", "1.11.11.2", 266e6, 1ll << 30, "workstation");
  cfg.addRouter("switch0");
  cfg.addLink("eth0", "vm0.example.org", "switch0", 100e6, 50e-6);
  cfg.addLink("eth1", "vm1.example.org", "switch0", 100e6, 50e-6);
  return cfg;
}

// Run a tiny two-rank vmpi job through the full Launcher path (GIS,
// gatekeepers, co-allocation) and return the platform for inspection.
struct RunResult {
  std::unique_ptr<core::MicroGridPlatform> platform;
  std::string tree;  // SpanRecorder::serializeTree() ("" unless traced)
  std::string metrics_json;
  std::uint64_t events_executed = 0;
};

RunResult runObservedWorkload(bool enable_tracing) {
  RunResult out;
  core::VirtualGridConfig cfg = smallGrid();
  out.platform = std::make_unique<core::MicroGridPlatform>(cfg);
  if (enable_tracing) out.platform->simulator().spans().setEnabled(true);

  grid::ExecutableRegistry registry;
  registry.add("obs.job", [](grid::JobContext& jc) {
    auto comm = vmpi::Comm::init(jc);
    jc.os.allocateMemory(1 << 20);
    jc.os.compute(10e6);
    double ranks = comm->rank();
    comm->allreduce(&ranks, 1, vmpi::Op::Sum);
    if (comm->rank() == 0) {
      // Resource discovery, so the gis.service.* counters see traffic.
      gis::GisClient client(jc.os, "vm0.example.org");
      auto recs = client.search("ou=MicroGrid, o=Grid", gis::Scope::Subtree,
                                "(Is_Virtual_Resource=Yes)");
      EXPECT_FALSE(recs.empty());
      client.close();
    }
    jc.os.freeMemory(1 << 20);
    comm->finalize();
    return 0;
  });
  core::Launcher launcher(*out.platform, registry);
  launcher.startServices(&cfg, "ObsGrid");
  auto result =
      launcher.run("obs.job", "", {{"vm0.example.org", 1}, {"vm1.example.org", 1}});
  EXPECT_TRUE(result.ok) << result.error;

  sim::Simulator& sim = out.platform->simulator();
  out.tree = sim.spans().serializeTree();
  out.metrics_json = sim.metrics().snapshotJson();
  out.events_executed = sim.eventsExecuted();
  return out;
}

// NPB EP across both hosts with span recording on: the acceptance workload
// for the causal-trace determinism and parentage checks.
struct TracedRun {
  std::unique_ptr<core::MicroGridPlatform> platform;
  std::string tree;     // SpanRecorder::serializeTree()
  std::string chrome;   // obs::chromeTraceJson()
  std::string profile;  // obs::SimProfiler::json()
};

TracedRun runTracedEp(net::NetModelKind netmodel = net::NetModelKind::Packet) {
  TracedRun out;
  core::VirtualGridConfig cfg = smallGrid();
  core::MicroGridOptions mopts;
  mopts.netmodel = netmodel;
  out.platform = std::make_unique<core::MicroGridPlatform>(cfg, mopts);
  sim::Simulator& sim = out.platform->simulator();
  sim.spans().setEnabled(true);

  grid::ExecutableRegistry registry;
  npb::ResultSink sink;
  npb::registerNpb(registry, sink);
  core::Launcher launcher(*out.platform, registry);
  launcher.startServices(&cfg, "ObsGrid");
  auto result =
      launcher.run("npb.ep", "S", {{"vm0.example.org", 1}, {"vm1.example.org", 1}});
  EXPECT_TRUE(result.ok) << result.error;

  out.tree = sim.spans().serializeTree();
  out.chrome = obs::chromeTraceJson(sim.spans());
  out.profile = obs::SimProfiler(sim.spans()).json();
  return out;
}

// Does following parent links from `id` reach `root`?
bool reaches(const mo::SpanRecorder& rec, mo::SpanId id, mo::SpanId root) {
  for (const mo::SpanRecorder::Span* s = rec.find(id); s != nullptr; s = rec.find(s->parent)) {
    if (s->id == root) return true;
  }
  return false;
}

// Minimal parser for the snapshot's counters section: returns the integer
// value of `name`, or -1 when the counter is absent.
long long jsonCounter(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const auto pos = json.find(key);
  if (pos == std::string::npos) return -1;
  return std::stoll(json.substr(pos + key.size()));
}

}  // namespace

TEST(ObsEndToEnd, SnapshotCoversEveryLayer) {
  RunResult r = runObservedWorkload(/*enable_tracing=*/false);
  const std::string& j = r.metrics_json;
  // One counter per refactored layer must be present and non-zero: the
  // kernel, the packet network, TCP, the scheduler, the memory manager,
  // vmpi, the control-plane framing, and the GIS.
  EXPECT_GT(jsonCounter(j, "sim.kernel.events_executed"), 0) << j;
  EXPECT_GT(jsonCounter(j, "net.packet.delivered"), 0) << j;
  EXPECT_GT(jsonCounter(j, "net.tcp.segments_sent"), 0) << j;
  EXPECT_GT(jsonCounter(j, "vos.sched.quanta"), 0) << j;
  EXPECT_GT(jsonCounter(j, "vos.mem.allocations"), 0) << j;
  EXPECT_GT(jsonCounter(j, "vmpi.comm.messages_sent"), 0) << j;
  EXPECT_GT(jsonCounter(j, "vmpi.comm.collectives"), 0) << j;
  EXPECT_GT(jsonCounter(j, "vos.wire.frames_sent"), 0) << j;
  EXPECT_GT(jsonCounter(j, "gis.service.searches"), 0) << j;
  // The registry view and the kernel's own accessor agree.
  EXPECT_EQ(static_cast<std::uint64_t>(jsonCounter(j, "sim.kernel.events_executed")),
            r.events_executed);
}

TEST(ObsEndToEnd, SameSeedRunsAreByteIdentical) {
  // The determinism acceptance test: two identically configured runs must
  // produce byte-identical span trees and metrics snapshots.
  RunResult a = runObservedWorkload(/*enable_tracing=*/true);
  RunResult b = runObservedWorkload(/*enable_tracing=*/true);
  EXPECT_FALSE(a.tree.empty());
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.tree, b.tree);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
}

TEST(SpansEndToEnd, SameSeedEpRunsProduceByteIdenticalSpanTrees) {
  // ISSUE acceptance: same-seed NPB EP runs yield byte-identical span trees,
  // Chrome traces, and profiles.
  TracedRun a = runTracedEp();
  TracedRun b = runTracedEp();
  EXPECT_FALSE(a.tree.empty());
  EXPECT_EQ(a.tree, b.tree);
  EXPECT_EQ(a.chrome, b.chrome);
  EXPECT_EQ(a.profile, b.profile);
}

TEST(SpansEndToEnd, NetSpansHaveLiveParents) {
  // Every network-layer span must hang off a live causal chain: a TCP
  // segment or packet hop with parent 0 would mean causality got dropped at
  // a layer boundary.
  TracedRun r = runTracedEp();
  const mo::SpanRecorder& rec = r.platform->simulator().spans();
  int checked = 0;
  for (const auto& s : rec.spans()) {
    if (s.component.rfind("net.", 0) != 0) continue;
    EXPECT_NE(s.parent, 0u) << "orphan " << s.component << "." << s.name << " #" << s.id;
    EXPECT_NE(rec.find(s.parent), nullptr) << "dangling parent on #" << s.id;
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST(SpansEndToEnd, JobSpanTransitivelyParentsEveryLayer) {
  // The headline acceptance criterion: one "core.launcher job" root span
  // transitively parents GRAM requests, the jobmanager, vmpi traffic, TCP
  // segments, per-hop packet forwarding, and scheduler quanta.
  TracedRun r = runTracedEp();
  const mo::SpanRecorder& rec = r.platform->simulator().spans();

  mo::SpanId root = 0;
  for (const auto& s : rec.spans()) {
    if (s.component == "core.launcher" && s.name == "job") {
      EXPECT_EQ(root, 0u) << "more than one job root span";
      root = s.id;
    }
  }
  ASSERT_NE(root, 0u);

  std::map<std::string, int> descendants;  // component -> spans under root
  for (const auto& s : rec.spans()) {
    if (s.id != root && reaches(rec, s.id, root)) ++descendants[s.component];
  }
  for (const char* comp : {"grid.gram", "grid.job", "vmpi.comm", "vmpi.coll", "net.tcp",
                           "net.packet", "vos.sched"}) {
    EXPECT_GT(descendants[comp], 0) << "no " << comp << " span descends from the job root";
  }
}

TEST(SpansEndToEnd, JobmanagerContinuesItsSubmitRequest) {
  // The gatekeeper serves a connection under the span that was current when
  // it was accepted, so every jobmanager hangs off the client's SUBMIT
  // request, whether the request rode TCP segments or a flow socket.
  for (const auto netmodel : {net::NetModelKind::Packet, net::NetModelKind::Flow}) {
    SCOPED_TRACE(netmodel == net::NetModelKind::Packet ? "packet" : "flow");
    TracedRun r = runTracedEp(netmodel);
    const mo::SpanRecorder& rec = r.platform->simulator().spans();
    int checked = 0;
    for (const auto& s : rec.spans()) {
      if (s.component != "grid.gram" || s.name != "jobmanager") continue;
      const mo::SpanRecorder::Span* p = rec.find(s.parent);
      ASSERT_NE(p, nullptr) << "jobmanager #" << s.id << " has no parent";
      EXPECT_EQ(p->component, "grid.gram");
      EXPECT_EQ(p->name, "request");
      const std::pair<std::string, std::string> submit{"verb", "SUBMIT"};
      const bool is_submit =
          std::find(p->attrs.begin(), p->attrs.end(), submit) != p->attrs.end();
      EXPECT_TRUE(is_submit) << "jobmanager #" << s.id << " parent #" << p->id;
      ++checked;
    }
    EXPECT_EQ(checked, 2);  // one jobmanager per allocation part
  }
}

TEST(SpansEndToEnd, ProfilerAggregatesPerHostPerLayer) {
  TracedRun r = runTracedEp();
  const obs::SimProfiler prof(r.platform->simulator().spans());
  ASSERT_FALSE(prof.buckets().empty());
  bool saw_quantum = false, saw_tcp = false;
  for (const auto& b : prof.buckets()) {
    EXPECT_GT(b.count, 0);
    EXPECT_GE(b.p99_ns, b.p50_ns);
    if (b.span == "vos.sched.quantum") saw_quantum = true;
    if (b.span == "net.tcp.segment") saw_tcp = true;
  }
  EXPECT_TRUE(saw_quantum);
  EXPECT_TRUE(saw_tcp);
  // Both renderings exist and the table carries one row per bucket.
  EXPECT_EQ(prof.table().rowCount(), prof.buckets().size());
}

TEST(SpansEndToEnd, ChromeTraceIsWellFormedJson) {
  // Cheap structural checks (CI runs the real validator, python3 -m
  // json.tool, on an mgrun-produced trace).
  TracedRun r = runTracedEp();
  EXPECT_EQ(r.chrome.rfind("{\"traceEvents\":[", 0), 0u) << r.chrome.substr(0, 80);
  EXPECT_EQ(r.chrome.substr(r.chrome.size() - 4), "\n]}\n");
  EXPECT_NE(r.chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(r.chrome.find("\"name\":\"thread_name\""), std::string::npos);
}

// ------------------------------------------------------- observer effect --

namespace {

/// Everything a simulated observer could see of one NPB class S job run the
/// way mgrun runs it: the launcher path, one rank per Alpha cluster host.
struct NpbObservation {
  double virtual_seconds = 0;
  std::vector<double> checksums;   // by rank
  std::string metrics;             // snapshotJson() without obs.span.*
  std::set<std::string> env_keys;  // JobContext::env keys the ranks saw
  long long spans_begun = 0;
};

template <class PlatformT>
NpbObservation observeNpb(const std::string& exe, bool spans) {
  const core::VirtualGridConfig cfg = core::topologies::alphaCluster();
  PlatformT platform(cfg);
  platform.simulator().spans().setEnabled(spans);

  grid::ExecutableRegistry npb_registry;
  npb::ResultSink sink;
  npb::registerNpb(npb_registry, sink);
  NpbObservation out;
  grid::ExecutableRegistry registry;
  registry.add(exe, [&](grid::JobContext& jc) {
    for (const auto& kv : jc.env) out.env_keys.insert(kv.first);
    return npb_registry.lookup(exe)(jc);
  });
  core::Launcher launcher(platform, registry);
  launcher.startServices(&cfg, "mgrun");
  const core::LaunchResult result =
      launcher.run(exe, "S", mgtest::LauncherHarness::fourRanks());
  EXPECT_TRUE(result.ok) << result.error;

  out.virtual_seconds = result.virtual_seconds;
  std::vector<npb::KernelResult> ranks = sink.results();
  std::sort(ranks.begin(), ranks.end(),
            [](const auto& a, const auto& b) { return a.rank < b.rank; });
  for (const auto& r : ranks) out.checksums.push_back(r.checksum);
  const std::string json = platform.simulator().metrics().snapshotJson();
  out.spans_begun = jsonCounter(json, "obs.span.begun");
  out.metrics = std::regex_replace(json, std::regex(R"("obs\.span\.[^"]*":[^,}]*,?)"), "");
  return out;
}

template <class PlatformT>
void expectSpansChangeNothing(const char* exe, const char* platform) {
  SCOPED_TRACE(std::string(exe) + " on " + platform);
  const NpbObservation off = observeNpb<PlatformT>(exe, false);
  const NpbObservation on = observeNpb<PlatformT>(exe, true);
  EXPECT_EQ(off.spans_begun, 0);
  EXPECT_GT(on.spans_begun, 0);
  EXPECT_EQ(off.checksums.size(), 4u);
  EXPECT_EQ(on.virtual_seconds, off.virtual_seconds);
  EXPECT_EQ(on.checksums, off.checksums);
  EXPECT_EQ(on.metrics, off.metrics);
  EXPECT_EQ(on.env_keys, off.env_keys);
}

}  // namespace

TEST(ObserverEffect, SpansLeaveNpbRunsUnchanged) {
  // Recording spans is a probe: the traced run must equal the untraced one
  // in virtual time, results, every non-span counter and the environment
  // the application sees, on both platforms. Causal context rides beside
  // the data, never in it.
  for (const char* exe : {"npb.ep", "npb.mg", "npb.is"}) {
    expectSpansChangeNothing<core::MicroGridPlatform>(exe, "mgrid");
    expectSpansChangeNothing<core::ReferencePlatform>(exe, "pgrid");
  }
}

// ------------------------------- faulted EP golden run with telemetry ------

namespace {

/// The golden workload: NPB EP through the full launcher path on the Alpha
/// cluster with a fault plan (vm3 crashes mid-run and restarts, eth1 runs at
/// 5% loss throughout), sampled by the full telemetry probe set.
struct GoldenRun {
  std::string metrics;   // MetricsRegistry::snapshotJson()
  std::string timeline;  // TimeSeriesRecorder::csv() (sampled at 50 ms)
  int resubmits = 0;
};

GoldenRun runGoldenEpWithFaults() {
  mgtest::HarnessOptions hopts;
  hopts.spans = true;
  mgtest::LauncherHarness h(hopts);
  sim::Simulator& sim = h.platform.simulator();

  npb::ResultSink sink;
  npb::registerNpb(h.registry, sink);

  fault::FaultPlan plan;
  plan.add(mgtest::crashVm3(1.0, 3.0));
  plan.add(mgtest::lossyEth1(0.05, 60.0));
  h.armFaults(std::move(plan));

  sim::TelemetrySampler sampler(sim, 50 * sim::kMillisecond);
  h.platform.registerTelemetry(sampler);
  sampler.start();

  auto result = h.launcher.run("npb.ep", "S", mgtest::LauncherHarness::fourRanks());
  EXPECT_TRUE(result.ok) << result.error;

  sampler.finish();

  GoldenRun out;
  out.metrics = sim.metrics().snapshotJson();
  out.timeline = sampler.timeline().csv();
  out.resubmits = result.resubmits;
  return out;
}

}  // namespace

// The golden timeline really carries the interesting series (not just
// headers): per-link utilization, CPU occupancy, and kernel rates all
// sampled during the faulted EP run, and the faults really bit.
TEST(FaultedEpGolden, TimelineCoversNetVosAndKernelSeries) {
  const GoldenRun run = runGoldenEpWithFaults();
  EXPECT_GT(jsonCounter(run.metrics, "fault.host_crash"), 0);
  EXPECT_GE(run.resubmits, 1);  // the crash really failed the first attempt
  EXPECT_EQ(run.timeline.rfind("series,bucket_start_ns,bucket_end_ns,samples,min,max,mean,last",
                               0),
            0u);
  EXPECT_NE(run.timeline.find("net.packet.link_util.eth0,"), std::string::npos);
  EXPECT_NE(run.timeline.find("vos.cpu.util.alpha0,"), std::string::npos);
  EXPECT_NE(run.timeline.find("vos.runq.alpha0,"), std::string::npos);
  EXPECT_NE(run.timeline.find("sim.events_per_s,"), std::string::npos);
  EXPECT_NE(run.timeline.find("sim.pending_events,"), std::string::npos);
}

// ------------------------------ drop causes and fault markers, per stream --

namespace {

/// serializeTree() lines holding both `span` (" component.name ") and
/// `attr` (" key=value" or " instant").
long long treeLines(const std::string& tree, std::string_view span, std::string_view attr) {
  long long n = 0;
  std::istringstream in(tree);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find(span) != std::string::npos && line.find(attr) != std::string::npos) ++n;
  }
  return n;
}

/// Kernel start time (ns) of the first `link` hop span at or after `after`.
long long firstHopStart(const std::string& tree, const std::string& link, long long after) {
  const std::string key = " net.packet.hop track=" + link + " start=";
  for (std::size_t pos = tree.find(key); pos != std::string::npos; pos = tree.find(key, pos + 1)) {
    const long long start = std::stoll(tree.substr(pos + key.size()));
    if (start >= after) return start;
  }
  return -1;
}

}  // namespace

TEST(ObsEndToEnd, SpansAndCountersCarryDropCausesAndFaultMarkers) {
  // Packet drop causes and fault markers reach two streams: span attributes
  // (dropped=<cause> on net.packet hops) and fault.injector instants, plus
  // the registry counters. Workload: the seeded lossy-eth1 EP plan with a
  // link-down window on eth2.
  //
  // The window must open while a packet is on eth2's wire (EP only talks at
  // start-up and in its closing allreduce). A first, lossy-only run finds an
  // eth2 hop of the allreduce; the second run is identical up to that
  // instant and takes eth2 down 2 us into the hop's ~7 us serialisation.
  fault::FaultPlan lossy;
  lossy.add(mgtest::lossyEth1(0.05, 60.0));
  const auto probe = mgtest::runEpUnderFaults(lossy, /*seed=*/42, /*spans=*/true);
  const long long hop = firstHopStart(probe.tree, "eth2", sim::kSecond);
  ASSERT_GT(hop, 0) << "no eth2 hop after start-up";
  const double rate = core::MicroGridPlatform(core::topologies::alphaCluster()).rate();
  fault::FaultPlan plan = lossy;
  plan.add(mgtest::simpleEvent(fault::FaultKind::LinkDown, "eth2",
                               static_cast<double>(hop + 2000) * 1e-9 * rate, 0.05));
  const auto run = mgtest::runEpUnderFaults(plan, /*seed=*/42, /*spans=*/true);

  // Per-packet spans exist only for traced packets: data segments sent with
  // causal context. Bare ACKs and control segments carry none, so their
  // loss drops reach only net.packet.dropped_loss: the loss path is checked
  // as "at least one span, never more than the counter". The link-down cut
  // hits the traced segment on the wire with nothing queued behind it, so
  // spans and counter agree exactly. (Packets queued behind a cut one are
  // purged before they get a hop span; their segment span ends
  // dropped=purged.)
  const long long loss = jsonCounter(run.metrics, "net.packet.dropped_loss");
  const long long loss_spans = treeLines(run.tree, " net.packet.hop ", " dropped=loss");
  EXPECT_GE(loss_spans, 1);
  EXPECT_LE(loss_spans, loss);
  EXPECT_EQ(treeLines(run.tree, " net.packet.hop ", " dropped=link_down"),
            jsonCounter(run.metrics, "net.packet.drop_link_down"));
  EXPECT_GE(jsonCounter(run.metrics, "net.packet.drop_link_down"), 1);

  // Every applied fault leaves exactly one instant: degrade + restore on
  // eth1, down + up on eth2.
  EXPECT_EQ(jsonCounter(run.metrics, "fault.injected"), 4);
  EXPECT_EQ(treeLines(run.tree, " fault.injector.", " instant"), 4);
}

// ------------------------------------ time-resolved telemetry (DESIGN §10) --

namespace {

/// Record `v` for the series named `name`. A sampler resolves each name
/// once, at registration; the tests resolve on every sample for brevity.
void addTo(mo::TimeSeriesRecorder& rec, std::string_view name, std::int64_t t, double v) {
  rec.add(rec.resolve(name), t, v);
}

constexpr std::int64_t kCap = static_cast<std::int64_t>(mo::TimeSeriesRecorder::kCapacity);

}  // namespace

TEST(Timeline, BucketsAggregateMinMaxMeanLast) {
  mo::TimeSeriesRecorder rec(100);
  addTo(rec, "s", 0, 1.0);
  addTo(rec, "s", 50, 3.0);   // same bucket
  addTo(rec, "s", 120, 2.0);  // next bucket
  const auto* s = rec.find("s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->origin, 0);
  EXPECT_EQ(s->width, 100);
  ASSERT_EQ(s->buckets.size(), 2u);
  EXPECT_EQ(s->buckets[0].count, 2);
  EXPECT_DOUBLE_EQ(s->buckets[0].min, 1.0);
  EXPECT_DOUBLE_EQ(s->buckets[0].max, 3.0);
  EXPECT_DOUBLE_EQ(s->buckets[0].sum, 4.0);
  EXPECT_DOUBLE_EQ(s->buckets[0].last, 3.0);
  EXPECT_EQ(s->buckets[1].count, 1);
  EXPECT_DOUBLE_EQ(s->buckets[1].last, 2.0);
  EXPECT_EQ(rec.sampleCount(), 3);
  EXPECT_EQ(rec.seriesCount(), 1u);
}

TEST(Timeline, OriginAlignsDownToTheWidthGrid) {
  mo::TimeSeriesRecorder rec(100);
  addTo(rec, "s", 250, 1.0);  // first sample anchors origin at 200
  const auto* s = rec.find("s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->origin, 200);
  EXPECT_EQ(s->buckets[0].count, 1);
}

TEST(Timeline, WideningDoublesWidthAndMergesPairs) {
  // One sample per bucket fills all kCapacity buckets with 1, 2, 1, 2, ...;
  // the next one lands at index kCapacity and widens once.
  mo::TimeSeriesRecorder rec(100);
  for (std::int64_t i = 0; i < kCap; ++i) addTo(rec, "s", i * 100, i % 2 == 0 ? 1.0 : 2.0);
  addTo(rec, "s", kCap * 100, 3.0);
  const auto* s = rec.find("s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->width, 200);
  EXPECT_EQ(s->widenings, 1);
  ASSERT_EQ(s->buckets.size(), static_cast<std::size_t>(kCap / 2 + 1));
  // Old buckets 0+1 merged into the new [0, 200) window.
  EXPECT_EQ(s->buckets[0].count, 2);
  EXPECT_DOUBLE_EQ(s->buckets[0].min, 1.0);
  EXPECT_DOUBLE_EQ(s->buckets[0].max, 2.0);
  EXPECT_DOUBLE_EQ(s->buckets[0].last, 2.0);
  EXPECT_EQ(s->buckets.back().count, 1);
  EXPECT_DOUBLE_EQ(s->buckets.back().last, 3.0);
}

TEST(Timeline, WideningMatchesAnUnboundedReference) {
  // Oracle check for the downsampling path: after many widenings, every
  // bucket must hold exactly the aggregate an unbounded recorder would
  // compute for the same window at the final resolution.
  mo::TimeSeriesRecorder rec(100);
  std::vector<std::pair<std::int64_t, double>> raw;
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t t = static_cast<std::int64_t>(i) * 137;
    const double v = static_cast<double>((i * 7919) % 1000) / 10.0;
    addTo(rec, "s", t, v);
    raw.emplace_back(t, v);
  }
  const auto* s = rec.find("s");
  ASSERT_NE(s, nullptr);
  ASSERT_GT(s->widenings, 0);
  ASSERT_LE(s->buckets.size(), mo::TimeSeriesRecorder::kCapacity);

  std::map<std::int64_t, mo::TimeSeriesRecorder::Bucket> expect;
  for (const auto& [t, v] : raw) {
    const std::int64_t idx = (t - s->origin) / s->width;
    auto& b = expect[idx];
    if (b.count == 0) {
      b.min = b.max = b.sum = v;
    } else {
      b.min = std::min(b.min, v);
      b.max = std::max(b.max, v);
      b.sum += v;
    }
    ++b.count;
    b.last = v;
  }
  for (std::size_t i = 0; i < s->buckets.size(); ++i) {
    const auto& got = s->buckets[i];
    const auto it = expect.find(static_cast<std::int64_t>(i));
    if (it == expect.end()) {
      EXPECT_EQ(got.count, 0) << "bucket " << i;
      continue;
    }
    EXPECT_EQ(got.count, it->second.count) << "bucket " << i;
    EXPECT_DOUBLE_EQ(got.min, it->second.min) << "bucket " << i;
    EXPECT_DOUBLE_EQ(got.max, it->second.max) << "bucket " << i;
    EXPECT_DOUBLE_EQ(got.sum, it->second.sum) << "bucket " << i;
    EXPECT_DOUBLE_EQ(got.last, it->second.last) << "bucket " << i;
  }
}

TEST(Timeline, CsvAndJsonAreByteStable) {
  mo::TimeSeriesRecorder rec(100);
  addTo(rec, "z.late", 0, 1.5);
  addTo(rec, "a.early", 250, 0.25);
  addTo(rec, "a.early", 260, 0.75);
  const std::string csv =
      "series,bucket_start_ns,bucket_end_ns,samples,min,max,mean,last\n"
      "a.early,200,300,2,0.25,0.75,0.5,0.75\n"
      "z.late,0,100,1,1.5,1.5,1.5,1.5\n";
  EXPECT_EQ(rec.csv(), csv);
  EXPECT_EQ(rec.csv(), csv);
  const std::string json =
      "{\"series\":["
      "{\"name\":\"a.early\",\"origin_ns\":200,\"width_ns\":100,\"widenings\":0,"
      "\"buckets\":[[200,2,0.25,0.75,0.5,0.75]]},"
      "{\"name\":\"z.late\",\"origin_ns\":0,\"width_ns\":100,\"widenings\":0,"
      "\"buckets\":[[0,1,1.5,1.5,1.5,1.5]]}"
      "]}";
  EXPECT_EQ(rec.json(), json);
}

TEST(Sampler, LevelsAndRatesOverSimulatorTicks) {
  sim::Simulator sim;
  sim::TelemetrySampler sampler(sim, sim::kSecond);

  double cum = 0;
  double level = 0;
  sampler.addRate("r", [&cum](std::int64_t) { return cum; });
  sampler.addLevel("l", [&level](std::int64_t) { return level; });
  sim.scheduleAt(sim::fromSeconds(0.25), [&] { cum += 2.0; level = 7; });
  sim.scheduleAt(sim::fromSeconds(1.5), [&] { cum += 3.0; level = 9; });
  sim.scheduleAt(sim::fromSeconds(3.0), [] {});

  sampler.start();
  sim.run();
  sampler.finish();

  // Ticks at 0/1/2/3 s; the sampler must not keep the run alive past the
  // last real event.
  EXPECT_EQ(sim.now(), sim::fromSeconds(3.0));
  EXPECT_EQ(sampler.ticks(), 4);

  const auto* r = sampler.timeline().find("r");
  ASSERT_NE(r, nullptr);
  // The t=0 baseline only primes the cumulative, so the first rate sample —
  // and the series origin — land at the 1 s tick.
  EXPECT_EQ(r->origin, sim::kSecond);
  ASSERT_EQ(r->buckets.size(), 3u);
  EXPECT_DOUBLE_EQ(r->buckets[0].last, 2.0);  // (2-0)/1s over [0,1]
  EXPECT_DOUBLE_EQ(r->buckets[1].last, 3.0);  // (5-2)/1s over [1,2]
  EXPECT_DOUBLE_EQ(r->buckets[2].last, 0.0);  // idle tail

  const auto* l = sampler.timeline().find("l");
  ASSERT_NE(l, nullptr);
  ASSERT_EQ(l->buckets.size(), 4u);
  EXPECT_DOUBLE_EQ(l->buckets[0].last, 0.0);
  EXPECT_DOUBLE_EQ(l->buckets[1].last, 7.0);
  EXPECT_DOUBLE_EQ(l->buckets[2].last, 9.0);
  EXPECT_DOUBLE_EQ(l->buckets[3].last, 9.0);
}

TEST(Sampler, CounterRateAndKernelProbes) {
  sim::Simulator sim;
  sim::TelemetrySampler sampler(sim, 100 * sim::kMillisecond);
  sampler.registerKernelProbes();

  for (int i = 1; i <= 20; ++i) {
    sim.scheduleAt(i * 25 * sim::kMillisecond, [] {});
  }
  sampler.start();
  sim.run();
  sampler.finish();

  const auto* ev = sampler.timeline().find("sim.events_per_s");
  ASSERT_NE(ev, nullptr);
  double max_rate = 0;
  for (const auto& b : ev->buckets) max_rate = std::max(max_rate, b.max);
  EXPECT_GT(max_rate, 0.0);  // events really flowed through the rate probe
  EXPECT_NE(sampler.timeline().find("sim.pending_events"), nullptr);
  EXPECT_NE(sampler.timeline().find("sim.arena_slots"), nullptr);
}

TEST(Sampler, ProbesAfterStartThrowAndFinishIsIdempotent) {
  sim::Simulator sim;
  sim::TelemetrySampler sampler(sim, 100 * sim::kMillisecond);
  sampler.addLevel("l", [](std::int64_t) { return 1.0; });
  sampler.start();
  EXPECT_THROW(sampler.addLevel("m", [](std::int64_t) { return 2.0; }), mg::UsageError);
  EXPECT_THROW(sampler.start(), mg::UsageError);
  sampler.finish();
  sampler.finish();  // same-timestamp collect is skipped, not double-counted
  EXPECT_EQ(sampler.timeline().sampleCount(), 1);
}

TEST(Sampler, NanLevelRecordsNoSample) {
  // A level probe reading NaN means "no value yet": nothing is recorded, so
  // the series starts at the source's first value (Fig 17's sensors).
  sim::Simulator sim;
  sim::TelemetrySampler sampler(sim, sim::kSecond);
  double level = std::numeric_limits<double>::quiet_NaN();
  sampler.addLevel("l", [&level](std::int64_t) { return level; });
  sim.scheduleAt(sim::fromSeconds(1.5), [&] { level = 4; });
  sim.scheduleAt(sim::fromSeconds(2.5), [&] { level = std::numeric_limits<double>::quiet_NaN(); });
  sim.scheduleAt(sim::fromSeconds(3.5), [&] { level = 6; });
  sim.scheduleAt(sim::fromSeconds(4.0), [] {});
  sampler.start();
  sim.run();

  EXPECT_EQ(sampler.ticks(), 5);  // 0..4 s: NaN ticks still count as ticks
  const auto* l = sampler.timeline().find("l");
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->origin, 2 * sim::kSecond);  // first non-NaN reading
  ASSERT_EQ(l->buckets.size(), 3u);
  EXPECT_EQ(l->buckets[0].count, 1);
  EXPECT_DOUBLE_EQ(l->buckets[0].last, 4.0);
  EXPECT_EQ(l->buckets[1].count, 0);  // the 3 s tick read NaN: a gap
  EXPECT_DOUBLE_EQ(l->buckets[2].last, 6.0);
  EXPECT_EQ(sampler.timeline().sampleCount(), 2);
}

TEST(Sampler, SameNameProbesMergeIntoOneSeries) {
  // Two probes under one name feed one series, as two same-named links do:
  // every tick puts one sample from each into the same bucket.
  sim::Simulator sim;
  sim::TelemetrySampler sampler(sim, sim::kSecond);
  sampler.addLevel("l", [](std::int64_t) { return 1.0; });
  sampler.addLevel("l", [](std::int64_t) { return 3.0; });
  sim.scheduleAt(sim::fromSeconds(2.0), [] {});
  sampler.start();
  sim.run();

  EXPECT_EQ(sampler.timeline().seriesCount(), 1u);
  const auto* l = sampler.timeline().find("l");
  ASSERT_NE(l, nullptr);
  ASSERT_EQ(l->buckets.size(), 3u);  // ticks at 0, 1 and 2 s
  for (const auto& b : l->buckets) {
    EXPECT_EQ(b.count, 2);
    EXPECT_DOUBLE_EQ(b.min, 1.0);
    EXPECT_DOUBLE_EQ(b.max, 3.0);
    EXPECT_DOUBLE_EQ(b.last, 3.0);  // registration order is add() order
  }
  EXPECT_EQ(sampler.timeline().sampleCount(), 6);
}

TEST(Sampler, AlwaysNanLevelLeavesNoSeries) {
  // A series is resolved at registration, but one that never records a
  // sample is in no export.
  sim::Simulator sim;
  sim::TelemetrySampler sampler(sim, sim::kSecond);
  sampler.addLevel("never", [](std::int64_t) { return std::numeric_limits<double>::quiet_NaN(); });
  sampler.addLevel("always", [](std::int64_t) { return 1.0; });
  sim.scheduleAt(sim::fromSeconds(2.0), [] {});
  sampler.start();
  sim.run();

  const mo::TimeSeriesRecorder& tl = sampler.timeline();
  EXPECT_EQ(tl.seriesCount(), 1u);
  EXPECT_EQ(tl.find("never"), nullptr);
  EXPECT_EQ(tl.seriesSorted().size(), 1u);
  EXPECT_EQ(tl.csv().find("never"), std::string::npos);
  EXPECT_EQ(tl.json().find("never"), std::string::npos);
  EXPECT_NE(tl.csv().find("always,"), std::string::npos);
}

TEST(Sampler, ProbesPastTheCapAreDroppedAndBoundTheSeries) {
  // The probe cap is the one bound on series: 4097 distinct probes record
  // 4096 series and count one dropped probe.
  sim::Simulator sim;
  sim::TelemetrySampler sampler(sim, sim::kSecond);
  ASSERT_EQ(sim::TelemetrySampler::kMaxProbes, 4096u);
  for (std::size_t i = 0; i <= sim::TelemetrySampler::kMaxProbes; ++i) {
    sampler.addLevel(mg::util::format("p%zu", i), [](std::int64_t) { return 1.0; });
  }
  EXPECT_EQ(sampler.droppedProbes(), 1);
  sampler.start();
  sampler.finish();
  EXPECT_EQ(sampler.timeline().seriesCount(), 4096u);
  EXPECT_EQ(sampler.timeline().sampleCount(), 4096);
  EXPECT_EQ(sampler.timeline().find("p4096"), nullptr);
  EXPECT_NE(sampler.timeline().find("p4095"), nullptr);
}

TEST(Sampler, RecorderTraceIsSecondsAndLast) {
  mo::TimeSeriesRecorder rec(sim::kSecond);
  addTo(rec, "vos.sched", 1'000'000'000, 0.5);
  addTo(rec, "vos.sched", 2'000'000'000, 0.75);
  addTo(rec, "vos.sched", 4'000'000'000, 0.25);  // bucket 3; bucket 2 stays empty
  addTo(rec, "other", 2'000'000'000, 9.0);
  const mg::util::Trace t = rec.trace("vos.sched");
  ASSERT_EQ(t.size(), 3u);  // empty buckets are skipped
  EXPECT_DOUBLE_EQ(t[0].first, 1.0);  // nanoseconds -> seconds
  EXPECT_DOUBLE_EQ(t[0].second, 0.5);
  EXPECT_DOUBLE_EQ(t[1].first, 2.0);
  EXPECT_DOUBLE_EQ(t[1].second, 0.75);
  EXPECT_DOUBLE_EQ(t[2].first, 4.0);
  EXPECT_DOUBLE_EQ(t[2].second, 0.25);
  EXPECT_EQ(rec.trace("other").size(), 1u);
}

TEST(Sampler, RecorderTraceRefusesApproximateSeries) {
  mo::TimeSeriesRecorder rec(100);
  EXPECT_THROW(rec.trace("missing"), mg::UsageError);
  // Two samples in one bucket: "last" would silently drop one.
  addTo(rec, "dense", 0, 1.0);
  addTo(rec, "dense", 50, 2.0);
  EXPECT_THROW(rec.trace("dense"), mg::UsageError);
  // A widened series merged buckets pairwise.
  for (std::int64_t i = 0; i <= kCap; ++i) addTo(rec, "wide", i * 100, 1.0);
  ASSERT_EQ(rec.find("wide")->widenings, 1);
  EXPECT_THROW(rec.trace("wide"), mg::UsageError);
}

TEST(TraceExport, TimelineSeriesBecomeCounterTracks) {
  mo::SpanRecorder spans;
  std::int64_t now = 0;
  spans.setTimeSource([&now] { return now; });
  spans.setEnabled(true);
  const auto id = spans.begin("layer", "op", "track");
  now = 1000;
  spans.end(id);

  mo::TimeSeriesRecorder rec(1000);
  addTo(rec, "net.link_util.eth0", 0, 0.5);
  addTo(rec, "net.link_util.eth0", 1500, 0.75);

  const std::string with = mo::chromeTraceJson(spans, &rec);
  EXPECT_NE(with.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(with.find("\"name\":\"net.link_util.eth0\""), std::string::npos);
  EXPECT_NE(with.find("\"args\":{\"value\":0.5}"), std::string::npos);
  EXPECT_NE(with.find("\"args\":{\"value\":0.75}"), std::string::npos);
  // Without a timeline the export is unchanged legacy output.
  EXPECT_EQ(mo::chromeTraceJson(spans).find("\"ph\":\"C\""), std::string::npos);
}

// ------------------------------------------------- live progress monitor --

namespace {

/// A temporary file standing in for stderr: the monitor write(2)s to its fd.
class FdSink {
 public:
  FdSink() : f_(std::tmpfile()) {}
  ~FdSink() { std::fclose(f_); }
  FdSink(const FdSink&) = delete;
  FdSink& operator=(const FdSink&) = delete;

  int fd() const { return fileno(f_); }
  std::string str() const {
    std::string out;
    char buf[4096];
    ssize_t n = 0;
    while ((n = ::pread(fd(), buf, sizeof buf, static_cast<off_t>(out.size()))) > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    }
    return out;
  }

 private:
  std::FILE* f_;
};

/// Burn wall time without yielding, as a long-running event would.
void spinWall(std::chrono::milliseconds d) {
  const auto end = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < end) {
  }
}

}  // namespace

TEST(Progress, PulseTracksClockAndPending) {
  mo::RunPulse pulse;
  EXPECT_FALSE(pulse.enabled());
  pulse.beat(1000, 5);
  pulse.beat(3000, 7);
  EXPECT_EQ(pulse.simNow(), 3000);
  EXPECT_EQ(pulse.pending(), 7);
  pulse.beat(3000, 0);
  EXPECT_EQ(pulse.pending(), 0);
}

TEST(Progress, KernelPublishesClockAndPendingWhenEnabled) {
  sim::Simulator sim;
  sim.scheduleAt(10, [] {});
  sim.scheduleAt(20, [] {});
  sim.run();
  EXPECT_EQ(sim.pulse().simNow(), 0);  // disabled by default: nothing published
  mo::ProgressOptions popts;
  popts.interval_s = mo::kMaxProgressInterval;  // enable the pulse, no heartbeat
  mo::ProgressMonitor monitor(sim.pulse(), sim.metrics().counter("sim.kernel.events_executed"),
                              popts);
  monitor.start();
  EXPECT_TRUE(sim.pulse().enabled());
  sim.scheduleAt(30, [] {});
  sim.scheduleAt(40, [] {});
  sim.run();
  EXPECT_EQ(sim.pulse().simNow(), 40);
  EXPECT_EQ(sim.pulse().pending(), 0);
  monitor.stop();
  EXPECT_FALSE(sim.pulse().enabled());
}

TEST(Progress, MonitorHeartbeatsToSinkAndCountsThem) {
  mo::RunPulse pulse;
  mo::Counter events;
  events.inc(1500);

  FdSink sink;
  mo::ProgressOptions popts;
  popts.interval_s = 0.02;
  popts.stall_s = 3600;  // watchdog out of the way
  popts.fd = sink.fd();
  popts.label = "t-progress";
  popts.fraction = [] { return 0.5; };
  mo::ProgressMonitor monitor(pulse, events, popts);
  monitor.start();
  for (int i = 0; i < 100 && monitor.heartbeats() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    pulse.beat(2'500'000'000, 3);  // as the kernel does after each event
  }
  monitor.stop();

  EXPECT_GE(monitor.heartbeats(), 2);
  const std::string out = sink.str();
  EXPECT_NE(out.find("t-progress: sim 2.500s"), std::string::npos) << out;
  EXPECT_NE(out.find("| 1.50k ev ("), std::string::npos) << out;
  EXPECT_NE(out.find("pending 3"), std::string::npos) << out;
  EXPECT_NE(out.find("eta"), std::string::npos) << out;
}

TEST(Progress, StallWatchdogDumpsStateOnce) {
  mo::RunPulse pulse;
  pulse.beat(2'000'000'000, 6);
  mo::Counter events;
  events.inc();

  FdSink sink;
  mo::ProgressOptions popts;
  popts.interval_s = 0.01;
  popts.stall_s = 0.03;  // no events will run: stall fires fast
  popts.fd = sink.fd();
  mo::ProgressMonitor monitor(pulse, events, popts);
  monitor.start();
  for (int i = 0; i < 100 && monitor.stallDumps() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  monitor.stop();

  EXPECT_GE(monitor.stallDumps(), 1);
  // One dump per quiet episode, not one per poll while quiet.
  EXPECT_LE(monitor.stallDumps(), 1 + 1);
  const std::string out = sink.str();
  EXPECT_NE(out.find("STALL"), std::string::npos) << out;
  EXPECT_NE(out.find("t=2.000000s pending=6 events=1"), std::string::npos) << out;
}

TEST(Progress, KernelHeartbeatsDuringARealRun) {
  // Each step spins 3 ms of wall time inside a process, so the timer's
  // handler lands on the process's stack and the kernel's next dispatch
  // prints the due heartbeat.
  constexpr int kSteps = 30;
  sim::Simulator sim;
  int done = 0;
  sim.spawn("spinner", [&] {
    for (int i = 0; i < kSteps; ++i) {
      sim.delay(sim::kMillisecond);
      spinWall(std::chrono::milliseconds(3));
      ++done;
    }
  });
  FdSink sink;
  mo::ProgressOptions popts;
  popts.interval_s = 0.01;
  popts.stall_s = 3600;
  popts.fd = sink.fd();
  popts.fraction = [&done] { return static_cast<double>(done) / kSteps; };
  mo::ProgressMonitor monitor(sim.pulse(), sim.metrics().counter("sim.kernel.events_executed"),
                              popts);
  monitor.start();
  sim.run();
  monitor.stop();

  EXPECT_GE(monitor.heartbeats(), 2);
  EXPECT_EQ(monitor.stallDumps(), 0);
  const std::string out = sink.str();
  EXPECT_NE(out.find("progress: sim 0.0"), std::string::npos) << out;
  EXPECT_NE(out.find(" ev ("), std::string::npos) << out;
  EXPECT_NE(out.find("eta"), std::string::npos) << out;
}

TEST(Progress, StallInsideOneEventDumpsDuringIt) {
  // A process stuck in one event never lets the kernel beat again: the
  // dump must come from the timer's handler while the event still runs.
  sim::Simulator sim;
  FdSink sink;
  mo::ProgressOptions popts;
  popts.interval_s = 0.01;
  popts.stall_s = 0.05;
  popts.fd = sink.fd();
  mo::ProgressMonitor monitor(sim.pulse(), sim.metrics().counter("sim.kernel.events_executed"),
                              popts);
  std::int64_t dumps_inside = -1;
  sim.spawn("stuck", [&] {
    sim.delay(sim::fromSeconds(1.5));
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (monitor.stallDumps() == 0 && std::chrono::steady_clock::now() < deadline) {
    }
    dumps_inside = monitor.stallDumps();
  });
  sim.scheduleAt(sim::fromSeconds(3), [] {});
  sim.scheduleAt(sim::fromSeconds(4), [] {});
  monitor.start();
  sim.run();
  monitor.stop();

  EXPECT_EQ(dumps_inside, 1);
  const std::string out = sink.str();
  EXPECT_TRUE(std::regex_search(
      out, std::regex("progress: STALL no event commit for [0-9]+\\.[0-9]s wall")))
      << out;
  // The board as the stuck event left it: its clock, the two later events,
  // and the spawn's first slice plus the stuck wake-up.
  EXPECT_NE(out.find("t=1.500000s pending=2 events=2"), std::string::npos) << out;
}
