// Binds an obs::TelemetrySampler to the simulation kernel (DESIGN.md §10).
//
// obs sits below sim in the layering, so TelemetrySampler talks to the
// kernel through a Host struct of callables; telemetryHost() is the one
// place those bindings live. The sampler's tick runs as an ordinary kernel
// event.
//
// registerKernelProbes() adds the kernel's own series: events executed per
// second, pending events, and event-arena occupancy — the "is the simulator
// itself healthy" view next to the per-resource probes the net/vos/econ
// layers register.
#pragma once

#include "obs/sampler.h"
#include "sim/simulator.h"

namespace mg::sim {

/// The sampler's kernel surface bound to `sim`. The Simulator must outlive
/// any sampler built on the returned host.
obs::TelemetrySampler::Host telemetryHost(Simulator& sim);

/// Kernel health probes: sim.events_per_s (rate of
/// sim.kernel.events_executed), sim.pending_events, sim.arena_slots.
void registerKernelProbes(obs::TelemetrySampler& sampler, Simulator& sim);

}  // namespace mg::sim
