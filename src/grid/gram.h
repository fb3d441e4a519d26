// GRAM: the gatekeeper / jobmanager resource-management services and the
// submission client.
//
// Paper §2.2.1: "our current solution is to run all gatekeeper, jobmanager
// and client processes on virtual hosts. Thus jobs are submitted to virtual
// servers through the virtual Grid resource's gatekeeper."
//
// Wire protocol (framed, see vos/wire.h):
//   SUBMIT\n<subject>\n<rsl>       -> OK\n<jobid>        | ERR\n<msg>
//   STATUS\n<jobid>                -> OK\nPENDING|ACTIVE|DONE <code>|FAILED <msg>
//   WAIT\n<jobid>                  -> OK\nDONE <code>|FAILED <msg>   (blocks)
//   CANCEL\n<jobid>                -> OK\n                | ERR\n<msg>
//
// Each virtual host runs one gatekeeper on port 2119. A SUBMIT spawns a
// jobmanager process which launches `count` copies of the named executable
// on that host, merges their exit codes, and records the result.
#pragma once

#include <memory>
#include <string>

#include "grid/registry.h"
#include "grid/rsl.h"
#include "vos/context.h"

namespace mg::grid {

inline constexpr std::uint16_t kGatekeeperPort = 2119;

enum class JobState { Pending, Active, Done, Failed, Cancelled };
std::string jobStateName(JobState s);

struct JobStatus {
  JobState state = JobState::Pending;
  int exit_code = 0;     // meaningful when Done
  std::string error;     // meaningful when Failed
};

struct GatekeeperOptions {
  /// When non-empty, SUBMIT requests must present this subject (a stand-in
  /// for GSI credential checking).
  std::string required_subject;
  /// Modeled cost of jobmanager startup, in operations on the gatekeeper's
  /// host CPU. Authentication before it has a fixed cost (DESIGN.md §12).
  double jobmanager_startup_ops = 5e6;
};

/// Serve the gatekeeper on ctx's host. Blocks forever; spawn as a process.
void serveGatekeeper(vos::HostContext& ctx, const ExecutableRegistry& registry,
                     GatekeeperOptions opts = {});

/// Client-side resilience: how requests to an unreachable gatekeeper are
/// retried. Backoff sleeps are in virtual seconds and double each attempt.
struct GramRetryPolicy {
  int attempts = 4;              // total tries per request
  double backoff_seconds = 0.5;  // sleep before the first retry
};

/// The globusrun-style client.
class GramClient {
 public:
  explicit GramClient(vos::HostContext& ctx, std::string subject = "anonymous");

  /// Submit to a host's gatekeeper; returns a job contact "host#id".
  /// Retried only on connect-phase failures (nothing reached the
  /// gatekeeper, so no double submission).
  std::string submit(const std::string& host, const Rsl& rsl);

  /// Poll a job.
  JobStatus status(const std::string& contact);

  /// Block until the job reaches a terminal state.
  JobStatus wait(const std::string& contact);

  /// Request cancellation of a pending/active job.
  void cancel(const std::string& contact);

  void setRetryPolicy(const GramRetryPolicy& p) { retry_ = p; }
  const GramRetryPolicy& retryPolicy() const { return retry_; }

 private:
  JobStatus parseStatus(const std::string& body) const;
  /// One framed exchange with exponential-backoff retries. Idempotent verbs
  /// (STATUS/WAIT/CANCEL) also retry after a mid-exchange reset; SUBMIT does
  /// not. "ERR" replies are never retried.
  std::string request(const std::string& host, const std::string& payload, bool idempotent);

  vos::HostContext& ctx_;
  std::string subject_;
  GramRetryPolicy retry_;
  obs::Counter& c_retries_;
};

}  // namespace mg::grid
