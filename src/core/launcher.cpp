#include "core/launcher.h"

#include <algorithm>
#include <memory>

#include "obs/span.h"
#include "util/log.h"
#include "util/strings.h"

namespace mg::core {

namespace {

constexpr const char* kGisBase = "ou=MicroGrid, o=Grid";
/// Virtual seconds before the first resubmission; doubles per attempt.
constexpr double kResubmitBackoffSeconds = 1.0;

/// Re-place parts whose hosts the GIS no longer lists (their records expired
/// when they crashed). Runs in the client process between attempts; on any
/// GIS trouble the parts are left alone — the resubmission may still succeed
/// if the original host restarted.
void replaceDeadParts(vos::HostContext& ctx, const std::string& gis_host,
                      std::vector<grid::AllocationPart>& parts) {
  try {
    gis::GisClient gc(ctx, gis_host);
    std::vector<std::string> live;
    for (const auto& rec :
         gc.search(kGisBase, gis::Scope::Subtree, "(objectclass=GridComputeResource)")) {
      const std::string h = rec.get("hostName", "");
      if (!h.empty()) live.push_back(h);
    }
    gc.close();
    auto isLive = [&](const std::string& h) {
      return std::find(live.begin(), live.end(), h) != live.end();
    };
    auto inUse = [&](const std::string& h) {
      return std::any_of(parts.begin(), parts.end(),
                         [&](const grid::AllocationPart& p) { return p.host == h; });
    };
    for (auto& p : parts) {
      if (isLive(p.host)) continue;
      for (const auto& h : live) {
        if (inUse(h)) continue;
        MG_LOG_INFO("launcher") << "re-placing part from dead " << p.host << " onto " << h;
        p.host = h;
        break;
      }
    }
  } catch (const mg::Error& e) {
    MG_LOG_INFO("launcher") << "GIS re-placement skipped: " << e.what();
  }
}

}  // namespace

Launcher::Launcher(Platform& platform, const grid::ExecutableRegistry& registry)
    : platform_(platform), registry_(registry) {}

void Launcher::startServices(const VirtualGridConfig* publish, const std::string& config_name,
                             const std::string& gis_host) {
  if (services_started_) throw mg::UsageError("services already started");
  services_started_ = true;
  const auto& hosts = platform_.mapper().hosts();
  if (hosts.empty()) throw ConfigError("virtual grid has no hosts");
  gis_host_ = gis_host.empty() ? hosts.front().hostname : gis_host;

  if (publish != nullptr) {
    publish->toGis(directory_, gis::Dn::parse(kGisBase), config_name);
  }

  platform_.spawnOn(gis_host_, "gis-server", [this](vos::HostContext& ctx) {
    gis::serveDirectory(ctx, directory_);
  });
  for (const auto& host : hosts) {
    platform_.spawnOn(host.hostname, "gatekeeper." + host.hostname, [this](vos::HostContext& ctx) {
      grid::serveGatekeeper(ctx, registry_);
    });
  }
}

std::shared_ptr<LaunchResult> Launcher::submitAsync(
    const std::string& executable, const std::string& arguments,
    const std::vector<grid::AllocationPart>& parts,
    const std::map<std::string, std::string>& extra_env, const std::string& client_host) {
  if (!services_started_) throw mg::UsageError("call startServices() first");
  if (parts.empty()) throw mg::UsageError("job needs at least one allocation part");
  const std::string client = client_host.empty() ? parts.front().host : client_host;

  auto result = std::make_shared<LaunchResult>();
  platform_.spawnOn(
      client, "globusrun." + executable,
      [result, executable, arguments, parts, extra_env, opts = opts_,
       gis_host = gis_host_](vos::HostContext& ctx) {
        // Root of the job's causal chain: everything downstream — GRAM
        // requests, jobmanagers, ranks, vmpi traffic, TCP segments, packet
        // hops, scheduler quanta — parents back to this span.
        obs::ScopedSpan job_span(ctx.simulator().spans(), "core.launcher", "job",
                                 ctx.hostname());
        if (job_span.active()) job_span.annotate("executable", executable);
        grid::Coallocator co(ctx);
        co.client().setRetryPolicy(opts.retry);
        result->submitted_at = ctx.wallTime();
        std::vector<grid::AllocationPart> cur = parts;
        double backoff = kResubmitBackoffSeconds;
        for (int attempt = 0;; ++attempt) {
          std::map<std::string, std::string> env = extra_env;
          // Fresh port block per attempt: ranks of a failed attempt may
          // still hold their listeners while they drain.
          env["MG_PORT_BASE"] = std::to_string(grid::kVmpiPortBase + attempt * 64);
          try {
            const grid::CoallocationResult cr = co.run(executable, arguments, cur, env);
            result->ok = cr.ok;
            result->exit_code = cr.exit_code;
            result->error = cr.error;
          } catch (const mg::Error& e) {
            result->ok = false;
            result->error = e.what();
          }
          if (result->ok || attempt >= opts.max_resubmits) break;
          result->attempt_errors.push_back(result->error);
          ++result->resubmits;
          MG_LOG_INFO("launcher") << "attempt " << attempt + 1 << " failed (" << result->error
                                  << "); resubmitting after " << backoff << "s";
          ctx.sleep(backoff);
          backoff *= 2;
          replaceDeadParts(ctx, gis_host, cur);
        }
        result->completed_at = ctx.wallTime();
        result->virtual_seconds = result->completed_at - result->submitted_at;
      });
  return result;
}

LaunchResult Launcher::run(const std::string& executable, const std::string& arguments,
                           const std::vector<grid::AllocationPart>& parts,
                           const std::map<std::string, std::string>& extra_env,
                           const std::string& client_host) {
  auto result = submitAsync(executable, arguments, parts, extra_env, client_host);
  platform_.run();
  if (result->completed_at == 0 && !result->ok) {
    // The simulation drained while the client was still blocked: deadlock.
    const auto stuck = platform_.simulator().suspendedProcessNames();
    std::string names;
    for (const auto& n : stuck) names += " " + n;
    MG_LOG_WARN("launcher") << "simulation drained with " << stuck.size()
                            << " suspended process(es):" << names;
    if (result->error.empty()) result->error = "simulation deadlocked (see launcher warnings)";
  }
  return *result;
}

void Launcher::saveState(obs::StateWriter& w) const {
  w.key("grid.gis");
  // toLdif is insertion-ordered and stable under deterministic replay.
  w.str("ldif", directory_.toLdif());
  w.str("gis_host", gis_host_);
}

void Launcher::markHostDown(const std::string& hostname) {
  const gis::Dn dn = gis::Dn::parse(kGisBase).child("hn", hostname);
  if (const gis::Record* r = directory_.find(dn)) {
    gis::Record copy = *r;
    copy.set(gis::kAttrExpires, util::format("%.9g", platform_.virtualNow()));
    directory_.upsert(std::move(copy));
  }
}

void Launcher::markHostUp(const std::string& hostname) {
  const gis::Dn dn = gis::Dn::parse(kGisBase).child("hn", hostname);
  if (const gis::Record* r = directory_.find(dn)) {
    gis::Record copy = *r;
    copy.unset(gis::kAttrExpires);
    directory_.upsert(std::move(copy));
  }
  // The restarted host comes back cold: re-run its middleware daemons.
  if (services_started_) {
    if (hostname == gis_host_) {
      platform_.spawnOn(gis_host_, "gis-server", [this](vos::HostContext& ctx) {
        gis::serveDirectory(ctx, directory_);
      });
    }
    platform_.spawnOn(hostname, "gatekeeper." + hostname, [this](vos::HostContext& ctx) {
      grid::serveGatekeeper(ctx, registry_);
    });
  }
}

}  // namespace mg::core
