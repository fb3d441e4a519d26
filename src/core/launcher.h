// The Launcher ties the middleware to a platform: it starts the GIS server
// and a gatekeeper on every virtual host, publishes the virtual grid's
// Fig 3 records, and runs co-allocated jobs end-to-end through the GRAM
// submission path — the paper's "jobs are submitted to virtual servers
// through the virtual Grid resource's gatekeeper".
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/platform.h"
#include "core/virtual_grid.h"
#include "gis/service.h"
#include "grid/coallocator.h"
#include "grid/gram.h"
#include "grid/registry.h"

namespace mg::core {

struct LaunchResult {
  bool ok = false;
  int exit_code = 0;
  std::string error;
  /// Virtual seconds from submission to completion of all parts.
  double virtual_seconds = 0;
  double submitted_at = 0;
  double completed_at = 0;
  /// Times the whole job was resubmitted after a failed attempt.
  int resubmits = 0;
  /// The error of each failed attempt, in order.
  std::vector<std::string> attempt_errors;
};

/// Resilience knobs for Launcher::run. With max_resubmits > 0 a failed job
/// is resubmitted (after a doubling virtual-time backoff of 1, 2, 4, ...
/// seconds), re-placing parts whose hosts have dropped out of the GIS.
struct LaunchOptions {
  int max_resubmits = 0;
  grid::GramRetryPolicy retry;
};

class Launcher {
 public:
  /// The registry must outlive the Launcher (services hold references).
  Launcher(Platform& platform, const grid::ExecutableRegistry& registry);

  /// Start the GIS server (on `gis_host`, default: the first virtual host)
  /// and one gatekeeper per virtual host. When `publish` is given, its
  /// virtual host/network records are loaded into the GIS under
  /// `config_name`. Call once.
  void startServices(const VirtualGridConfig* publish = nullptr,
                     const std::string& config_name = "default",
                     const std::string& gis_host = "");

  /// Submit `executable` across `parts` from a client process on
  /// `client_host` (default: the first part's host), run the simulation
  /// until it completes, and return the outcome.
  LaunchResult run(const std::string& executable, const std::string& arguments,
                   const std::vector<grid::AllocationPart>& parts,
                   const std::map<std::string, std::string>& extra_env = {},
                   const std::string& client_host = "");

  /// The non-blocking half of run(): spawn the client process and return a
  /// handle to its (eventual) result without driving the simulation. The
  /// caller owns stepping — sim.runUntil()/run() — which is what the
  /// snapshot/explorer machinery needs to pause at fault decision points.
  /// `completed_at` stays 0 until the job finishes; if the simulation
  /// drains while it is still 0, the job deadlocked or was lost.
  std::shared_ptr<LaunchResult> submitAsync(
      const std::string& executable, const std::string& arguments,
      const std::vector<grid::AllocationPart>& parts,
      const std::map<std::string, std::string>& extra_env = {},
      const std::string& client_host = "");

  const std::string& gisHost() const { return gis_host_; }
  gis::Directory& directory() { return directory_; }

  void setLaunchOptions(const LaunchOptions& opts) { opts_ = opts; }

  /// Fault wiring: stamp the host's GIS record as expired *now*, so
  /// placement searches stop seeing it. Called when a host crashes.
  void markHostDown(const std::string& hostname);

  /// Fault wiring: refresh the host's GIS record and respawn its gatekeeper
  /// (and the GIS server, if it lived there). Called when a host restarts.
  void markHostUp(const std::string& hostname);

  /// Fold the middleware's state into `w` (DESIGN.md §11): the GIS
  /// directory's canonical LDIF dump.
  void saveState(obs::StateWriter& w) const;

 private:
  Platform& platform_;
  const grid::ExecutableRegistry& registry_;
  gis::Directory directory_;
  std::string gis_host_;
  LaunchOptions opts_;
  bool services_started_ = false;
};

}  // namespace mg::core
