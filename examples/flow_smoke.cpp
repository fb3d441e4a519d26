// flow_smoke — scalability and determinism smoke for the fluid network
// model (its gates: tests/e2e/flow.sh, tests/e2e/perf.sh).
//
// Generates a two-level tree grid (hosts under edge switches under one
// core router), runs a deterministic socket workload across it on a
// MicroGridPlatform with the selected --netmodel, and prints the metrics
// snapshot. Two runs with the same arguments must produce byte-identical
// output (the fluid model keeps the simulator's determinism guarantee), and
// at --compare-packet the flow model must cost at least 10x fewer kernel
// events than packet mode on the same workload — the scaling headroom the
// paper's "NSE does not scale up to large simulations" remark asks for.
//
//   $ ./examples/flow_smoke --hosts 10000
//   $ ./examples/flow_smoke --hosts 1000 --compare-packet
//
// Options:
//   --hosts N          virtual hosts in the generated tree (default 10000)
//   --pairs K          concurrent sender/receiver pairs (default 64)
//   --messages M       messages per pair (default 8)
//   --bytes B          payload bytes per message (default 262144)
//   --netmodel MODEL   packet | flow (default) | hybrid
//   --compare-packet   rerun the workload in packet mode and require a
//                      >= 10x kernel-event advantage for the flow model
//   --full-recompute   disable incremental sharing: every recompute visits
//                      every active flow (the correctness oracle; results
//                      are bit-identical, only the visit counters differ)
//   --timeline FILE    sample the platform's time-resolved series during the
//                      primary run and write them as CSV (DESIGN.md §10);
//                      feeds the EXPERIMENTS.md link-utilization table
//   --timeline-interval S  sampling interval in sim seconds (default 0.1;
//                      needs --timeline)
//   --quiet            suppress the metrics snapshot (timing summary only)
//
// Wall-clock seconds go to stderr (stdout stays byte-stable for the
// e2e.flow determinism cmp); the soak test reads them for the flow_smoke_100k
// timing.
#include <chrono>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/microgrid_platform.h"
#include "sim/sampler.h"
#include "util/error.h"
#include "util/strings.h"

using namespace mg;

namespace {

constexpr std::int64_t kIntMin = std::numeric_limits<int>::min();
constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();

struct Options {
  int hosts = 10000;
  int pairs = 64;
  int messages = 8;
  std::int64_t bytes = 262144;
  std::string netmodel = "flow";
  bool compare_packet = false;
  bool full_recompute = false;
  std::string timeline;              // CSV output path ("" = off)
  double timeline_interval_s = 0.1;  // sampling interval (sim seconds)
  bool quiet = false;
};

Options parseArgs(int argc, char** argv) {
  Options opt;
  bool interval_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw mg::UsageError("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--hosts") {
      opt.hosts = static_cast<int>(util::flagInt(flag, next(), kIntMin, kIntMax));
    } else if (flag == "--pairs") {
      opt.pairs = static_cast<int>(util::flagInt(flag, next(), kIntMin, kIntMax));
    } else if (flag == "--messages") {
      opt.messages = static_cast<int>(util::flagInt(flag, next(), 0, kIntMax));
    } else if (flag == "--bytes") {
      opt.bytes = util::flagInt(flag, next(), 0);
    } else if (flag == "--netmodel") {
      opt.netmodel = next();
    } else if (flag == "--compare-packet") {
      opt.compare_packet = true;
    } else if (flag == "--full-recompute") {
      opt.full_recompute = true;
    } else if (flag == "--timeline") {
      opt.timeline = next();
    } else if (flag == "--timeline-interval") {
      opt.timeline_interval_s =
          util::flagDouble(flag, next(), sim::kTickSeconds, sim::kMaxSeconds);
      interval_given = true;
    } else if (flag == "--quiet") {
      opt.quiet = true;
    } else {
      throw mg::UsageError("unknown flag " + flag + " (see the header of flow_smoke.cpp)");
    }
  }
  if (interval_given && opt.timeline.empty()) {
    throw mg::UsageError("--timeline-interval needs --timeline");
  }
  if (opt.hosts < 4) throw mg::UsageError("--hosts wants at least 4");
  if (opt.pairs < 1 || opt.pairs > opt.hosts / 2) {
    throw mg::UsageError("--pairs must be in [1, hosts/2]");
  }
  return opt;
}

/// Hosts under 64-port edge switches, switches under one core router —
/// cross-switch traffic takes 4 hops, so the packet model pays per segment
/// per hop while the fluid model pays per flow.
core::VirtualGridConfig makeTree(int hosts) {
  constexpr int kFanout = 64;
  constexpr double kHostOps = 500e6;
  core::VirtualGridConfig cfg;
  cfg.addRouter("core");
  const int switches = (hosts + kFanout - 1) / kFanout;
  for (int s = 0; s < switches; ++s) {
    const std::string sw = "sw" + std::to_string(s);
    cfg.addRouter(sw);
    cfg.addLink("up" + std::to_string(s), sw, "core", 1e9, 200e-6);
    cfg.addPhysical("pm" + std::to_string(s), kFanout * kHostOps);
  }
  for (int h = 0; h < hosts; ++h) {
    const std::string name = util::format("h%d", h);
    const std::string ip = util::format("10.%d.%d.%d", h / 65536, (h / 256) % 256, h % 256);
    cfg.addHost(name, ip, kHostOps, 1 << 28, "pm" + std::to_string(h / kFanout));
    cfg.addLink("eth" + std::to_string(h), name, "sw" + std::to_string(h / kFanout), 100e6,
                50e-6);
  }
  return cfg;
}

struct RunResult {
  double virtual_seconds = 0;
  std::uint64_t events = 0;
  std::int64_t bytes_received = 0;
  std::int64_t share_recomputes = 0;
  std::int64_t flow_visits = 0;
  double wall_seconds = 0;
  std::string metrics_json;
};

RunResult runWorkload(const core::VirtualGridConfig& cfg, const Options& opt,
                      net::NetModelKind kind, const std::string& timeline_path = {}) {
  core::MicroGridOptions mopts;
  mopts.netmodel = kind;
  mopts.flow_incremental = !opt.full_recompute;
  if (kind == net::NetModelKind::Hybrid) {
    // Escalate the first half of the pair ports so both paths carry traffic.
    mopts.netmodel_detail = {"port:7000-" + std::to_string(7000 + std::max(0, opt.pairs / 2 - 1))};
  }
  core::MicroGridPlatform platform(cfg, mopts);

  // Pair p streams from a host on switch p to a host half the grid away:
  // every flow crosses the core, so link sharing actually happens.
  auto total = std::make_shared<std::int64_t>(0);
  const int stride = opt.hosts / opt.pairs;
  for (int p = 0; p < opt.pairs; ++p) {
    const std::string src = util::format("h%d", p * stride);
    const std::string dst = util::format("h%d", (p * stride + opt.hosts / 2) % opt.hosts);
    const auto port = static_cast<std::uint16_t>(7000 + p);
    platform.spawnOn(dst, "rx." + std::to_string(p), [port, total](vos::HostContext& ctx) {
      auto listener = ctx.listen(port);
      auto sock = listener->accept();
      std::vector<std::uint8_t> buf(1 << 16);
      for (;;) {
        const std::size_t n = sock->recv(buf.data(), buf.size());
        if (n == 0) break;
        *total += static_cast<std::int64_t>(n);
      }
      sock->close();
    });
    platform.spawnOn(src, "tx." + std::to_string(p),
                     [port, dst, &opt](vos::HostContext& ctx) {
                       // Receivers bind at t=0 too; one virtual millisecond
                       // keeps connect() past every listen().
                       ctx.sleep(1e-3);
                       auto sock = ctx.connect(dst, port);
                       std::vector<std::uint8_t> msg(static_cast<std::size_t>(opt.bytes));
                       for (std::size_t i = 0; i < msg.size(); ++i) {
                         msg[i] = static_cast<std::uint8_t>(i * 131 % 251);
                       }
                       for (int m = 0; m < opt.messages; ++m) {
                         sock->send(msg.data(), msg.size());
                       }
                       sock->close();
                     });
  }

  std::unique_ptr<sim::TelemetrySampler> sampler;
  if (!timeline_path.empty()) {
    sampler = std::make_unique<sim::TelemetrySampler>(
        platform.simulator(), sim::fromSeconds(opt.timeline_interval_s));
    platform.registerTelemetry(*sampler);
    sampler->start();
  }

  RunResult r;
  const auto wall_begin = std::chrono::steady_clock::now();
  r.virtual_seconds = platform.run();
  r.wall_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_begin).count();

  if (sampler) {
    sampler->finish();
    const obs::TimeSeriesRecorder& tl = sampler->timeline();
    std::ofstream out(timeline_path, std::ios::binary | std::ios::trunc);
    if (!out) throw mg::UsageError("cannot open --timeline file " + timeline_path);
    out << tl.csv();
    std::cout << "wrote timeline (" << tl.seriesCount() << " series, " << tl.sampleCount()
              << " samples";
    if (sampler->droppedProbes() > 0) {
      std::cout << ", " << sampler->droppedProbes() << " probe(s) dropped past the cap";
    }
    std::cout << ") to " << timeline_path << "\n";
  }
  r.events = platform.simulator().eventsExecuted();
  r.bytes_received = *total;
  r.share_recomputes = platform.simulator().metrics().counter("net.flow.share_recomputes").value();
  r.flow_visits = platform.simulator().metrics().counter("net.flow.recompute_flow_visits").value();
  r.metrics_json = platform.simulator().metrics().snapshotJson();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parseArgs(argc, argv);
    const net::NetModelKind kind = net::parseNetModelKind(opt.netmodel);
    const core::VirtualGridConfig cfg = makeTree(opt.hosts);

    const std::int64_t expected =
        static_cast<std::int64_t>(opt.pairs) * opt.messages * opt.bytes;
    std::cout << "flow_smoke: hosts=" << opt.hosts << " netmodel="
              << net::netModelKindName(kind) << " pairs=" << opt.pairs << " messages="
              << opt.messages << " bytes=" << opt.bytes << "\n";

    const RunResult run = runWorkload(cfg, opt, kind, opt.timeline);
    std::cout << "transferred " << run.bytes_received << " byte(s) in " << run.virtual_seconds
              << " virtual seconds, " << run.events << " kernel event(s)\n";
    if (run.bytes_received != expected) {
      std::cerr << "FAIL: expected " << expected << " byte(s)\n";
      return 1;
    }
    if (run.share_recomputes > 0) {
      std::cout << "recompute scope: " << run.flow_visits << " flow visit(s) over "
                << run.share_recomputes << " recompute(s) ("
                << (opt.full_recompute ? "full" : "incremental") << ")\n";
    }
    // Wall clock is nondeterministic: stderr only, so stdout stays cmp-able.
    std::cerr << "wall_seconds=" << run.wall_seconds << "\n";
    if (!opt.quiet) std::cout << run.metrics_json << "\n";

    if (opt.compare_packet) {
      const RunResult pkt = runWorkload(cfg, opt, net::NetModelKind::Packet);
      if (pkt.bytes_received != expected) {
        std::cerr << "FAIL: packet run lost data\n";
        return 1;
      }
      const double ratio =
          static_cast<double>(pkt.events) / static_cast<double>(run.events);
      std::cout << "packet mode: " << pkt.events << " kernel event(s) in "
                << pkt.virtual_seconds << " virtual seconds\n"
                << "event ratio (packet/" << net::netModelKindName(kind) << "): " << ratio
                << "\n";
      if (ratio < 10.0) {
        std::cerr << "FAIL: expected >= 10x fewer events in the fluid model\n";
        return 1;
      }
      std::cout << "event-cost gate (>= 10x): PASS\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "flow_smoke: " << e.what() << "\n";
    return 2;
  }
}
