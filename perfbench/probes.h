// Calibration probes: small benchmark-owned loops over one layer's public
// API, timed in isolation. Multiplied by a workload's own work counts they
// give estimates (never measurements) of that layer's share of run_s.
#pragma once

#include "econ/workload.h"
#include "net/topology.h"

namespace perfbench {

/// Host ns per no-op event through Simulator::scheduleAt + run().
double probeDispatchNs();

/// Host ns per wake -> process slice -> suspend round, from a two-process
/// wake/suspend ping-pong.
double probeHandoffNs();

/// Host ms per lazily built routing column (one Dijkstra run) on `topo`.
double probeRouteColumnMs(const mg::net::Topology& topo);

/// Host ns per WorkloadGenerator::next on `spec`.
double probeEconGenNs(const mg::econ::WorkloadSpec& spec);

}  // namespace perfbench
