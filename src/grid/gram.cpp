#include "grid/gram.h"

#include <map>
#include <optional>

#include "net/tcp.h"
#include "obs/span.h"
#include "sim/condition.h"
#include "util/log.h"
#include "util/strings.h"
#include "util/units.h"
#include "vos/memory.h"
#include "vos/wire.h"

namespace mg::grid {

std::string jobStateName(JobState s) {
  switch (s) {
    case JobState::Pending: return "PENDING";
    case JobState::Active: return "ACTIVE";
    case JobState::Done: return "DONE";
    case JobState::Failed: return "FAILED";
    case JobState::Cancelled: return "CANCELLED";
  }
  return "?";
}

namespace {

/// Modeled cost of authentication (the GSI stand-in), in operations on the
/// gatekeeper's host CPU.
constexpr double kAuthOps = 2e6;
/// Retry backoff growth per attempt.
constexpr double kRetryBackoffMultiplier = 2.0;

struct JobRecord {
  JobStatus status;
  bool cancel_requested = false;
};

struct GkState {
  explicit GkState(sim::Simulator& sim) : done(sim) {}
  std::map<int, JobRecord> jobs;
  int next_id = 1;
  sim::Condition done;  // notified on every terminal transition
};

bool isTerminal(JobState s) {
  return s == JobState::Done || s == JobState::Failed || s == JobState::Cancelled;
}

std::string statusBody(const JobStatus& st) {
  switch (st.state) {
    case JobState::Done:
      return "DONE " + std::to_string(st.exit_code);
    case JobState::Failed:
      return "FAILED " + st.error;
    default:
      return jobStateName(st.state);
  }
}

void runJobManager(vos::HostContext& ctx, const ExecutableRegistry& registry,
                   std::shared_ptr<GkState> state, GatekeeperOptions opts, int job_id, Rsl rsl) {
  JobRecord& job = state->jobs.at(job_id);
  obs::ScopedSpan jm_span(ctx.simulator().spans(), "grid.gram", "jobmanager", ctx.hostname());
  if (jm_span.active()) jm_span.annotate("job", std::to_string(job_id));

  auto fail = [&](const std::string& why) {
    job.status.state = JobState::Failed;
    job.status.error = why;
    state->done.notifyAll();
  };

  // Jobmanager startup cost (fork/exec, RSL evaluation in real Globus).
  ctx.compute(opts.jobmanager_startup_ops);

  if (job.cancel_requested) {
    job.status.state = JobState::Cancelled;
    state->done.notifyAll();
    return;
  }

  const std::string exe_name = rsl.get("executable", "");
  if (exe_name.empty() || !registry.contains(exe_name)) {
    fail("no such executable: " + exe_name);
    return;
  }
  const int count = rsl.count();
  if (count < 1) {
    fail("count must be >= 1");
    return;
  }
  std::int64_t max_memory = 0;
  if (rsl.has("maxmemory")) {
    try {
      max_memory = util::parseSize(rsl.get("maxmemory"));
    } catch (const mg::Error& e) {
      fail(e.what());
      return;
    }
  }

  job.status.state = JobState::Active;
  // Shared completion accounting across the job's processes.
  auto remaining = std::make_shared<int>(count);

  for (int i = 0; i < count; ++i) {
    ctx.spawnProcess(
        exe_name + "." + std::to_string(job_id) + "." + std::to_string(i),
        [&registry, state, opts, job_id, rsl, exe_name, max_memory, i,
         remaining](vos::HostContext& pctx) {
          JobRecord& jr = state->jobs.at(job_id);
          obs::ScopedSpan rank_span(pctx.simulator().spans(), "grid.job", "rank",
                                    pctx.hostname());
          if (rank_span.active()) {
            rank_span.annotate("exe", exe_name);
            rank_span.annotate("local_index", std::to_string(i));
          }
          int code = 0;
          std::string error;
          try {
            std::optional<vos::MemoryLease> lease;
            if (max_memory > 0) lease.emplace(pctx, max_memory);
            JobContext jc{pctx, rsl.arguments(), rsl.environment()};
            jc.env["MG_LOCAL_INDEX"] = std::to_string(i);
            code = registry.lookup(exe_name)(jc);
          } catch (const std::exception& e) {
            error = e.what();
          }
          if (!error.empty()) {
            jr.status.state = JobState::Failed;
            if (jr.status.error.empty()) jr.status.error = error;
          } else if (code != 0 && jr.status.exit_code == 0) {
            jr.status.exit_code = code;
          }
          if (--*remaining == 0) {
            if (jr.status.state == JobState::Active) jr.status.state = JobState::Done;
            state->done.notifyAll();
          }
        });
  }
}

std::string handleRequest(vos::HostContext& ctx, const ExecutableRegistry& registry,
                          std::shared_ptr<GkState> state, const GatekeeperOptions& opts,
                          const std::string& request) {
  const auto lines = util::split(request, '\n');
  const std::string& verb = lines[0];

  if (verb == "SUBMIT") {
    if (lines.size() < 3) return "ERR\nSUBMIT needs subject and RSL";
    const std::string& subject = lines[1];
    std::string rsl_text = lines[2];
    for (std::size_t i = 3; i < lines.size(); ++i) rsl_text += "\n" + lines[i];
    // Authentication (GSI stand-in) costs CPU on the gatekeeper host.
    ctx.compute(kAuthOps);
    if (!opts.required_subject.empty() && subject != opts.required_subject) {
      return "ERR\nauthentication failed for subject '" + subject + "'";
    }
    Rsl rsl;
    try {
      rsl = Rsl::parse(rsl_text);
    } catch (const mg::Error& e) {
      return std::string("ERR\n") + e.what();
    }
    const int id = state->next_id++;
    state->jobs.emplace(id, JobRecord{});
    ctx.spawnProcess("jobmanager." + std::to_string(id),
                     [&registry, state, opts, id, rsl](vos::HostContext& jmctx) {
                       runJobManager(jmctx, registry, state, opts, id, rsl);
                     });
    return "OK\n" + std::to_string(id);
  }

  auto findJob = [&](const std::string& arg) -> JobRecord* {
    try {
      auto it = state->jobs.find(std::stoi(arg));
      return it == state->jobs.end() ? nullptr : &it->second;
    } catch (const std::exception&) {
      return nullptr;
    }
  };

  if (verb == "STATUS" || verb == "WAIT") {
    if (lines.size() < 2) return "ERR\nmissing job id";
    JobRecord* job = findJob(lines[1]);
    if (!job) return "ERR\nno such job " + lines[1];
    if (verb == "WAIT") {
      while (!isTerminal(job->status.state)) state->done.wait();
    }
    return "OK\n" + statusBody(job->status);
  }

  if (verb == "CANCEL") {
    if (lines.size() < 2) return "ERR\nmissing job id";
    int id = -1;
    try {
      id = std::stoi(lines[1]);
    } catch (const std::exception&) {
    }
    auto it = state->jobs.find(id);
    if (it == state->jobs.end()) return "ERR\nno such job " + lines[1];
    JobRecord& job = it->second;
    if (job.status.state == JobState::Pending) {
      // The jobmanager is still spinning up; it cancels at startup.
      job.cancel_requested = true;
      return "OK\n";
    }
    return "ERR\ncannot cancel " + jobStateName(job.status.state) + " job";
  }

  return "ERR\nunknown verb '" + verb + "'";
}

}  // namespace

void serveGatekeeper(vos::HostContext& ctx, const ExecutableRegistry& registry,
                     GatekeeperOptions opts) {
  auto state = std::make_shared<GkState>(ctx.simulator());
  auto listener = ctx.listen(kGatekeeperPort);
  MG_LOG_INFO("gram") << "gatekeeper listening on " << ctx.hostname() << ":" << kGatekeeperPort;
  for (;;) {
    auto sock = listener->accept();
    ctx.spawnProcess("gk-handler", [sock, &registry, state, opts](vos::HostContext& hctx) {
      // Serve under the client's request span, so the jobmanager a SUBMIT
      // spawns continues the submitter's causal chain across hosts.
      hctx.simulator().spans().setCurrent(sock->cause);
      try {
        for (;;) {
          const std::string request = vos::recvFrame(*sock, hctx.simulator().metrics());
          vos::sendFrame(*sock, handleRequest(hctx, registry, state, opts, request),
                         hctx.simulator().metrics());
        }
      } catch (const mg::Error&) {
        // client hung up
      }
      sock->close();
    });
  }
}

// ----------------------------------------------------------------- client --

GramClient::GramClient(vos::HostContext& ctx, std::string subject)
    : ctx_(ctx),
      subject_(std::move(subject)),
      c_retries_(ctx.simulator().metrics().counter("grid.gram.retries")) {}

std::string GramClient::request(const std::string& host, const std::string& payload,
                                bool idempotent) {
  obs::ScopedSpan span(ctx_.simulator().spans(), "grid.gram", "request", ctx_.hostname());
  if (span.active()) {
    const auto nl = payload.find('\n');
    span.annotate("verb", nl == std::string::npos ? payload : payload.substr(0, nl));
    span.annotate("host", host);
  }
  double backoff = retry_.backoff_seconds;
  for (int attempt = 1;; ++attempt) {
    try {
      auto sock = ctx_.connect(host, kGatekeeperPort);
      vos::sendFrame(*sock, payload, ctx_.simulator().metrics());
      const std::string reply = vos::recvFrame(*sock, ctx_.simulator().metrics());
      sock->close();
      const auto nl = reply.find('\n');
      const std::string status = (nl == std::string::npos) ? reply : reply.substr(0, nl);
      const std::string body = (nl == std::string::npos) ? "" : reply.substr(nl + 1);
      // A gatekeeper that answered is healthy; ERR is a real answer and is
      // never retried.
      if (status != "OK") throw mg::Error("GRAM: " + body);
      return body;
    } catch (const net::ConnectionRefused& e) {
      // Connect-phase failure: the request never reached the gatekeeper, so
      // retrying is always safe (including for SUBMIT).
      if (attempt >= retry_.attempts) throw;
      MG_LOG_TRACE("gram") << "retrying " << host << " after: " << e.what();
    } catch (const net::ConnectionReset& e) {
      // Mid-exchange failure: the gatekeeper may have acted on the request.
      if (!idempotent || attempt >= retry_.attempts) throw;
      MG_LOG_TRACE("gram") << "retrying " << host << " after: " << e.what();
    }
    c_retries_.inc();
    ctx_.sleep(backoff);
    backoff *= kRetryBackoffMultiplier;
  }
}

std::string GramClient::submit(const std::string& host, const Rsl& rsl) {
  const std::string id = request(host, "SUBMIT\n" + subject_ + "\n" + rsl.str(), false);
  return host + "#" + id;
}

JobStatus GramClient::parseStatus(const std::string& body) const {
  JobStatus st;
  const auto parts = util::splitWhitespace(body);
  if (parts.empty()) throw mg::Error("empty GRAM status");
  if (parts[0] == "DONE") {
    st.state = JobState::Done;
    st.exit_code = parts.size() > 1 ? std::stoi(parts[1]) : 0;
  } else if (parts[0] == "FAILED") {
    st.state = JobState::Failed;
    st.error = body.substr(std::min(body.size(), std::string("FAILED ").size()));
  } else if (parts[0] == "ACTIVE") {
    st.state = JobState::Active;
  } else if (parts[0] == "PENDING") {
    st.state = JobState::Pending;
  } else if (parts[0] == "CANCELLED") {
    st.state = JobState::Cancelled;
  } else {
    throw mg::Error("unknown GRAM status '" + body + "'");
  }
  return st;
}

namespace {
std::pair<std::string, std::string> splitContact(const std::string& contact) {
  const auto hash = contact.find('#');
  if (hash == std::string::npos) throw mg::UsageError("bad job contact '" + contact + "'");
  return {contact.substr(0, hash), contact.substr(hash + 1)};
}
}  // namespace

JobStatus GramClient::status(const std::string& contact) {
  auto [host, id] = splitContact(contact);
  return parseStatus(request(host, "STATUS\n" + id, true));
}

JobStatus GramClient::wait(const std::string& contact) {
  auto [host, id] = splitContact(contact);
  return parseStatus(request(host, "WAIT\n" + id, true));
}

void GramClient::cancel(const std::string& contact) {
  auto [host, id] = splitContact(contact);
  request(host, "CANCEL\n" + id, true);
}

}  // namespace mg::grid
