// The platform abstraction: something that can run virtual-Grid processes.
//
// Two implementations exist (DESIGN.md §2):
//  * ReferencePlatform  — the "physical grid" model: exact compute timing
//    and a flow-level network; plays the role of the real clusters the
//    paper validated against.
//  * MicroGridPlatform  — the emulated Grid: quantum CPU scheduler, packet-
//    level network, and virtual-time rescaling.
//
// Applications only ever see vos::HostContext, so the same program runs on
// both — the reproduction's analogue of "unmodified Globus applications".
#pragma once

#include <functional>
#include <string>

#include "sim/simulator.h"
#include "vos/context.h"
#include "vos/virtual_host.h"

namespace mg::core {

class Platform {
 public:
  virtual ~Platform() = default;

  virtual sim::Simulator& simulator() = 0;
  virtual const vos::HostMapper& mapper() const = 0;

  /// Start a process on the named virtual host (hostname or virtual IP).
  /// The body receives that process's HostContext. Returns the simulator
  /// process so owners can killProcess() stragglers (fault teardown).
  virtual sim::Process& spawnOn(const std::string& host_or_ip, const std::string& process_name,
                                std::function<void(vos::HostContext&)> body) = 0;

  /// Current virtual time in seconds.
  virtual double virtualNow() const = 0;

  /// Run the simulation until no work remains (daemons stay suspended);
  /// returns the final virtual time in seconds.
  double run() {
    simulator().run();
    return virtualNow();
  }

  /// Tear down all processes (daemons included).
  void shutdown() { simulator().shutdown(); }
};

}  // namespace mg::core
