#include "mc/scenario.h"

#include <vector>

#include "core/topologies.h"

namespace mg::mc {

double ScenarioRun::runTo(double virtual_s) {
  sim::Simulator& sim = platform->simulator();
  sim.runUntil(platform->virtualTime().toKernel(virtual_s));
  return platform->virtualNow();
}

double ScenarioRun::runToEnd() {
  platform->simulator().run();
  return platform->virtualNow();
}

ScenarioRun::~ScenarioRun() {
  // Unwind every simulated process before members start dying under them.
  if (platform) platform->shutdown();
}

ScenarioFactory transferScenario() {
  return [](const fault::FaultPlan& plan) {
    auto run = std::make_unique<ScenarioRun>();
    const auto cfg = core::topologies::alphaCluster();
    run->platform = std::make_unique<core::MicroGridPlatform>(cfg);
    core::MicroGridPlatform& p = *run->platform;
    run->injector = std::make_unique<fault::FaultInjector>(p, plan);
    run->injector->arm();

    constexpr std::size_t kBytes = 256 * 1024;
    auto received = std::make_shared<std::size_t>(0);
    p.spawnOn("vm0.ucsd.edu", "rx", [received](vos::HostContext& ctx) {
      auto listener = ctx.listen(80);
      auto sock = listener->accept();
      std::vector<std::uint8_t> buf(1 << 16);
      for (;;) {
        const std::size_t n = sock->recv(buf.data(), buf.size());
        if (n == 0) break;
        *received += n;
      }
      // Unwind cleanly: the net.open_sockets invariant requires every
      // survivor's connections closed or reset at the end of any schedule.
      sock->close();
    });
    p.spawnOn("vm1.ucsd.edu", "tx", [](vos::HostContext& ctx) {
      ctx.sleep(0.001);
      auto sock = ctx.connect("vm0.ucsd.edu", 80);
      std::vector<std::uint8_t> msg(kBytes, 0x5a);
      sock->send(msg.data(), msg.size());
      sock->close();
    });

    run->context = received;
    run->units_expected = 1;
    run->units_completed = [received] {
      return *received == kBytes ? std::int64_t{1} : std::int64_t{0};
    };
    p.registerStateCapture(run->capture);
    run->injector->registerStateCapture(run->capture);
    return run;
  };
}

ScenarioFactory launcherScenario(LauncherScenarioSpec spec) {
  auto shared = std::make_shared<const LauncherScenarioSpec>(std::move(spec));
  return [shared](const fault::FaultPlan& plan) {
    struct Ctx {
      grid::ExecutableRegistry registry;
      std::shared_ptr<core::LaunchResult> result;
    };
    auto ctx = std::make_shared<Ctx>();
    if (shared->registrar) shared->registrar(ctx->registry);

    auto run = std::make_unique<ScenarioRun>();
    run->platform =
        std::make_unique<core::MicroGridPlatform>(shared->grid, shared->platform);
    run->launcher = std::make_unique<core::Launcher>(*run->platform, ctx->registry);
    run->launcher->startServices(&shared->grid, shared->config_name);
    core::LaunchOptions lopts;
    lopts.max_resubmits = shared->max_resubmits;
    run->launcher->setLaunchOptions(lopts);

    run->injector = std::make_unique<fault::FaultInjector>(*run->platform, plan);
    core::Launcher* launcher = run->launcher.get();
    run->injector->onHostCrash(
        [launcher](const std::string& h) { launcher->markHostDown(h); });
    run->injector->onHostRestart(
        [launcher](const std::string& h) { launcher->markHostUp(h); });
    run->injector->arm();

    ctx->result = run->launcher->submitAsync(shared->executable, shared->arguments,
                                             shared->parts, {}, shared->client_host);
    run->context = ctx;
    run->units_expected = 1;
    run->units_completed = [ctx] {
      // A terminal state — success OR a reported failure — counts; only a
      // job that silently never finishes (lost/deadlocked) is a violation.
      return ctx->result->completed_at != 0 ? std::int64_t{1} : std::int64_t{0};
    };
    run->workload_error = [ctx]() -> std::string {
      if (ctx->result->completed_at == 0) {
        return "job never reached a terminal state (lost or deadlocked)";
      }
      return "";
    };
    run->platform->registerStateCapture(run->capture);
    run->launcher->registerStateCapture(run->capture);
    run->injector->registerStateCapture(run->capture);
    return run;
  };
}

}  // namespace mg::mc
