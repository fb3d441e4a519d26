#include "sim/telemetry.h"

namespace mg::sim {

obs::TelemetrySampler::Host telemetryHost(Simulator& sim) {
  obs::TelemetrySampler::Host host;
  host.now = [&sim] { return sim.now(); };
  host.schedule_at = [&sim](std::int64_t t, std::function<void()> fn) {
    sim.scheduleAt(t, EventFn(std::move(fn)));
  };
  host.pending_events = [&sim] { return sim.pendingEventCount(); };
  return host;
}

void registerKernelProbes(obs::TelemetrySampler& sampler, Simulator& sim) {
  sampler.addCounterRate("sim.events_per_s",
                         sim.metrics().counter("sim.kernel.events_executed"));
  sampler.addLevel("sim.pending_events", [&sim](std::int64_t) {
    return static_cast<double>(sim.pendingEventCount());
  });
  sampler.addLevel("sim.arena_slots", [&sim](std::int64_t) {
    return static_cast<double>(sim.eventArenaSlots());
  });
}

}  // namespace mg::sim
