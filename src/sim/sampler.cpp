#include "sim/sampler.h"

#include <cmath>

#include "util/error.h"

namespace mg::sim {

TelemetrySampler::TelemetrySampler(Simulator& sim, SimTime interval)
    : sim_(sim), interval_(interval), timeline_(interval) {
  if (interval_ <= 0) throw UsageError("TelemetrySampler wants interval > 0");
}

void TelemetrySampler::addProbe(std::string_view series,
                                std::function<double(std::int64_t)> read, bool rate) {
  if (started_) throw UsageError("TelemetrySampler probes must be registered before start()");
  if (probes_.size() >= kMaxProbes) {
    ++dropped_probes_;
    return;
  }
  probes_.push_back(Probe{timeline_.resolve(series), std::move(read), rate, 0});
}

void TelemetrySampler::addLevel(std::string_view series,
                                std::function<double(std::int64_t)> read) {
  addProbe(series, std::move(read), /*rate=*/false);
}

void TelemetrySampler::addRate(std::string_view series,
                               std::function<double(std::int64_t)> cumulative) {
  addProbe(series, std::move(cumulative), /*rate=*/true);
}

void TelemetrySampler::addCounterRate(std::string_view series, const obs::Counter& counter) {
  addRate(series, [&counter](std::int64_t) { return static_cast<double>(counter.value()); });
}

void TelemetrySampler::start() {
  if (started_) throw UsageError("TelemetrySampler::start called twice");
  started_ = true;
  const std::int64_t t0 = sim_.now();
  // The t0 tick records every level at its initial value and primes the
  // rate baselines (a rate's first recorded sample covers [t0, t0+interval]).
  collect(t0);
  scheduleNext(t0);
}

void TelemetrySampler::collect(std::int64_t t) {
  if (t == last_tick_) return;  // finish() colliding with the final tick
  const double dt_s = last_tick_ < 0 ? 0.0 : static_cast<double>(t - last_tick_) * 1e-9;
  for (Probe& p : probes_) {
    const double v = p.read(t);
    if (p.rate) {
      if (last_tick_ >= 0 && dt_s > 0) timeline_.add(p.series, t, (v - p.prev) / dt_s);
      p.prev = v;
    } else if (!std::isnan(v)) {
      timeline_.add(p.series, t, v);
    }
  }
  last_tick_ = t;
  ++ticks_;
}

void TelemetrySampler::scheduleNext(std::int64_t t) {
  // Without pending events the run is over (Simulator::run drains to empty);
  // rescheduling would keep it alive forever.
  if (sim_.pendingEventCount() == 0) return;
  const std::int64_t next = t + interval_;
  sim_.scheduleAt(next, EventFn([this, next] {
    collect(next);
    scheduleNext(next);
  }));
}

void TelemetrySampler::finish() {
  if (!started_) return;
  collect(sim_.now());
}

void TelemetrySampler::registerKernelProbes() {
  addCounterRate("sim.events_per_s", sim_.metrics().counter("sim.kernel.events_executed"));
  addLevel("sim.pending_events",
           [this](std::int64_t) { return static_cast<double>(sim_.pendingEventCount()); });
  addLevel("sim.arena_slots",
           [this](std::int64_t) { return static_cast<double>(sim_.eventArenaSlots()); });
}

}  // namespace mg::sim
