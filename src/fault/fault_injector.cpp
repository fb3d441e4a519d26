#include "fault/fault_injector.h"

#include <algorithm>
#include <cstdlib>
#include <set>

#include "obs/span.h"
#include "util/log.h"
#include "util/strings.h"
#include "util/table.h"

namespace mg::fault {

namespace {

bool isLinkKind(FaultKind k) {
  return k == FaultKind::LinkDown || k == FaultKind::LinkUp || k == FaultKind::LinkDegrade;
}

bool isHostKind(FaultKind k) {
  return k == FaultKind::HostCrash || k == FaultKind::HostRestart ||
         k == FaultKind::CpuBrownout;
}

// Deliberate, environment-gated bug for the explorer's mutation check
// (DESIGN.md §11): with MG_MC_MUTATION=1, a restart that follows its crash by
// less than 2 virtual seconds "forgets" to close the downtime interval, so the
// availability report claims the host is still down while the platform says
// it is alive. The model checker must find a schedule exposing this; it must
// never be set outside that test.
bool mutationEnabled() {
  static const bool on = [] {
    const char* v = std::getenv("MG_MC_MUTATION");
    return v != nullptr && *v != '\0' && *v != '0';
  }();
  return on;
}

}  // namespace

FaultInjector::FaultInjector(core::MicroGridPlatform& platform, FaultPlan plan)
    : platform_(platform),
      plan_(std::move(plan)),
      c_injected_(platform.simulator().metrics().counter("fault.injected")),
      c_ignored_(platform.simulator().metrics().counter("fault.ignored")) {
  // Register every per-kind counter up front so the metrics registry's
  // contents do not depend on which faults actually fire (determinism of the
  // --metrics=json output across plans).
  for (FaultKind k : {FaultKind::LinkDown, FaultKind::LinkUp, FaultKind::LinkDegrade,
                      FaultKind::HostCrash, FaultKind::HostRestart, FaultKind::CpuBrownout,
                      FaultKind::Partition, FaultKind::Heal}) {
    kind_counters_[faultKindName(k)] =
        &platform.simulator().metrics().counter("fault." + faultKindName(k));
  }
  for (const auto& ev : plan_.events()) validate(ev);
}

void FaultInjector::validate(const FaultEvent& ev) const {
  const net::Topology& topo = platform_.network().topology();
  if (isLinkKind(ev.kind) && topo.findLink(ev.target) == net::kNoLink) {
    throw ConfigError("fault '" + ev.name + "': unknown link '" + ev.target + "'");
  }
  if (isHostKind(ev.kind) && !platform_.mapper().contains(ev.target)) {
    throw ConfigError("fault '" + ev.name + "': unknown host '" + ev.target + "'");
  }
  if (ev.kind == FaultKind::Partition) {
    for (const auto& n : ev.nodes) {
      if (topo.findNode(n) == net::kNoNode) {
        throw ConfigError("fault '" + ev.name + "': unknown node '" + n + "'");
      }
    }
  }
  if (ev.kind == FaultKind::Heal && !ev.target.empty()) {
    const auto& evs = plan_.events();
    const bool known = std::any_of(evs.begin(), evs.end(), [&](const FaultEvent& other) {
      return other.kind == FaultKind::Partition && other.name == ev.target;
    });
    if (!known) {
      throw ConfigError("heal fault '" + ev.name + "': no partition named '" + ev.target + "'");
    }
  }
}

obs::Counter& FaultInjector::kindCounter(FaultKind k) {
  return *kind_counters_.at(faultKindName(k));
}

void FaultInjector::arm() {
  if (armed_) throw mg::UsageError("FaultInjector::arm called twice");
  // Every time the plan puts on the kernel clock — the event, and its
  // restore `duration` later — must fit SimTime at this simulation rate.
  const double rate = platform_.virtualTime().rate();
  for (const auto& ev : plan_.events()) {
    const char* key = nullptr;
    if (ev.at / rate >= sim::kMaxSeconds) {
      key = "at";
    } else if ((ev.at + ev.duration) / rate >= sim::kMaxSeconds) {
      key = "duration";
    }
    if (key != nullptr) {
      throw ConfigError(util::format(
          "fault '%s': %s reaches past the kernel clock's range (%g s) at simulation rate %g",
          ev.name.c_str(), key, sim::kMaxSeconds, rate));
    }
  }
  armed_ = true;
  sim::Simulator& sim = platform_.simulator();
  // Closures carry an index, not the event, so they fit EventFn inline.
  const std::vector<FaultEvent>& evs = plan_.events();
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const sim::SimTime t = platform_.virtualTime().toKernel(evs[i].at);
    sim.scheduleAt(std::max(t, sim.now()), [this, i] { fire(plan_.events()[i]); });
  }
}

void FaultInjector::applied(const FaultEvent& ev) {
  c_injected_.inc();
  kindCounter(ev.kind).inc();
  const std::string& what = ev.target.empty() ? ev.name : ev.target;
  obs::SpanRecorder& spans = platform_.simulator().spans();
  if (spans.enabled()) {
    // Faults show up as instant markers on the affected track, so a crash
    // lines up visually with the spans it aborts.
    const obs::SpanId mark = spans.instant("fault.injector", faultKindName(ev.kind), ev.target);
    spans.annotate(mark, "plan", ev.name);
  }
  MG_LOG_INFO("fault") << faultKindName(ev.kind) << " " << what << " (plan '" << ev.name
                       << "', t=" << ev.at << "vs)";
}

void FaultInjector::skipped(const FaultEvent& ev, const std::string& why) {
  c_ignored_.inc();
  const std::string& what = ev.target.empty() ? ev.name : ev.target;
  MG_LOG_INFO("fault") << "ignored " << faultKindName(ev.kind) << " " << what << " (plan '"
                       << ev.name << "', t=" << ev.at << "vs): " << why;
}

void FaultInjector::fire(const FaultEvent& ev) {
  sim::Simulator& sim = platform_.simulator();
  net::Network& net = platform_.network();
  const net::Topology& topo = net.topology();
  const double now = platform_.virtualNow();

  // Synthesize the inverse event `duration` virtual seconds later and keep
  // it in inverses_; the closure holds its index. The inverse goes through
  // fire() itself, so it is counted and traced like any other injected fault.
  auto addInverse = [&](FaultEvent inverse) {
    inverse.at = ev.at + ev.duration;
    inverse.duration = 0;
    inverses_.push_back(std::move(inverse));
    return inverses_.size() - 1;
  };
  auto scheduleInverse = [&](FaultEvent inverse) {
    const std::size_t i = addInverse(std::move(inverse));
    sim.scheduleAfter(platform_.virtualTime().toKernel(ev.duration),
                      [this, i] { fire(inverses_[i]); });
  };

  // Every case decides explicitly: apply (mutate state, count, schedule the
  // inverse) or ignore (count under fault.ignored, log the reason, and
  // crucially schedule NO inverse — a skipped crash must not spawn a phantom
  // restart). The rules are pure functions of pre-event state, so any
  // schedule the explorer composes — crash of a dead host, restart of a live
  // one, link_down twice at the same timestamp — has one deterministic
  // outcome and a consistent availability report.
  switch (ev.kind) {
    case FaultKind::LinkDown: {
      const net::LinkId lid = topo.findLink(ev.target);
      if (!topo.link(lid).up) {
        skipped(ev, "link already down");
        return;
      }
      net.setLinkUp(lid, false);
      if (ev.duration > 0) {
        FaultEvent inv = ev;
        inv.kind = FaultKind::LinkUp;
        scheduleInverse(inv);
      }
      break;
    }
    case FaultKind::LinkUp: {
      const net::LinkId lid = topo.findLink(ev.target);
      if (topo.link(lid).up) {
        skipped(ev, "link already up");
        return;
      }
      net.setLinkUp(lid, true);
      break;
    }
    case FaultKind::LinkDegrade: {
      const net::LinkId lid = topo.findLink(ev.target);
      const net::LinkParams saved = net.linkParams(lid);
      net::LinkParams p = saved;
      if (ev.loss >= 0) p.loss_rate = ev.loss;
      p.latency = static_cast<sim::SimTime>(static_cast<double>(p.latency) * ev.latency_mult);
      p.bandwidth_bps *= ev.bandwidth_mult;
      net.applyLinkParams(lid, p);
      if (ev.duration > 0) {
        // Restoring saved parameters needs the closure, not a plain inverse
        // event; it is still counted as a link_degrade application.
        const std::size_t i = addInverse(ev);
        sim.scheduleAfter(platform_.virtualTime().toKernel(ev.duration),
                          [this, i, lid, saved] {
                            platform_.network().applyLinkParams(lid, saved);
                            applied(inverses_[i]);
                          });
      }
      break;
    }
    case FaultKind::HostCrash: {
      if (!platform_.hostAlive(ev.target)) {
        skipped(ev, "host already down");
        return;
      }
      platform_.crashHost(ev.target);
      if (on_crash_) on_crash_(ev.target);
      HostStat& st = host_stats_[ev.target];
      ++st.crashes;
      st.down_since = now;
      if (ev.duration > 0) {
        FaultEvent inv = ev;
        inv.kind = FaultKind::HostRestart;
        scheduleInverse(inv);
      }
      break;
    }
    case FaultKind::HostRestart: {
      if (platform_.hostAlive(ev.target)) {
        skipped(ev, "host already up");
        return;
      }
      platform_.restartHost(ev.target);
      if (on_restart_) on_restart_(ev.target);
      HostStat& st = host_stats_[ev.target];
      if (st.down_since >= 0) {
        if (mutationEnabled() && now - st.down_since < 2.0) {
          // Seeded bug (see mutationEnabled above): the downtime interval is
          // left open, so report() keeps charging it forever.
        } else {
          st.downtime += now - st.down_since;
          st.down_since = -1;
        }
      }
      break;
    }
    case FaultKind::CpuBrownout: {
      if (!platform_.hostAlive(ev.target)) {
        skipped(ev, "host is down");
        return;
      }
      platform_.setHostCpuFactor(ev.target, ev.factor);
      if (ev.duration > 0) {
        FaultEvent inv = ev;
        inv.kind = FaultKind::CpuBrownout;
        inv.factor = 1.0;
        scheduleInverse(inv);
      }
      break;
    }
    case FaultKind::Partition: {
      std::set<net::NodeId> inside;
      for (const auto& n : ev.nodes) inside.insert(topo.findNode(n));
      std::vector<net::LinkId> cut;
      for (net::LinkId l = 0; l < topo.linkCount(); ++l) {
        const net::Link& link = topo.link(l);
        const bool a_in = inside.count(link.a) > 0;
        const bool b_in = inside.count(link.b) > 0;
        if (a_in == b_in || !link.up) continue;
        net.setLinkUp(l, false);
        cut.push_back(l);
      }
      if (cut.empty()) {
        // Every crossing link was already down (e.g. the same partition fired
        // twice): nothing to heal later, so no partitions_ entry either.
        skipped(ev, "cut is already empty");
        return;
      }
      std::vector<net::LinkId>& entry = partitions_[ev.name];
      entry.insert(entry.end(), cut.begin(), cut.end());
      if (ev.duration > 0) {
        FaultEvent inv = ev;
        inv.kind = FaultKind::Heal;
        inv.target = ev.name;
        scheduleInverse(inv);
      }
      break;
    }
    case FaultKind::Heal: {
      auto healOne = [&](const std::string& id) {
        auto it = partitions_.find(id);
        if (it == partitions_.end()) return;
        for (net::LinkId l : it->second) net.setLinkUp(l, true);
        partitions_.erase(it);
      };
      const bool mends = ev.target.empty() ? !partitions_.empty()
                                           : partitions_.count(ev.target) > 0;
      if (!mends) {
        skipped(ev, "nothing to heal");
        return;
      }
      if (ev.target.empty()) {
        while (!partitions_.empty()) healOne(partitions_.begin()->first);
      } else {
        healOne(ev.target);
      }
      break;
    }
  }
  applied(ev);
}

std::int64_t FaultInjector::injected() const { return c_injected_.value(); }

std::int64_t FaultInjector::ignored() const { return c_ignored_.value(); }

std::vector<FaultInjector::HostReport> FaultInjector::report(double elapsed_seconds) const {
  const double elapsed = elapsed_seconds > 0 ? elapsed_seconds : platform_.virtualNow();
  std::vector<HostReport> out;
  for (const auto& [host, st] : host_stats_) {
    HostReport r;
    r.host = host;
    r.crashes = st.crashes;
    r.downtime_seconds = st.downtime;
    if (st.down_since >= 0) {
      r.down_at_horizon = true;
      if (elapsed > st.down_since) {
        r.downtime_seconds += elapsed - st.down_since;  // still down at the horizon
      }
    }
    r.availability = elapsed > 0 ? 1.0 - r.downtime_seconds / elapsed : 1.0;
    r.mttr_seconds = st.crashes > 0 ? r.downtime_seconds / st.crashes : 0;
    out.push_back(std::move(r));
  }
  return out;
}

void FaultInjector::saveState(obs::StateWriter& w) const {
  w.key("fault");
  w.u64("hosts", host_stats_.size());
  for (const auto& [host, st] : host_stats_) {
    w.key(host);
    w.i64("crashes", st.crashes);
    w.f64("down_since", st.down_since);
    w.f64("downtime", st.downtime);
  }
  w.u64("partitions", partitions_.size());
  for (const auto& [name, links] : partitions_) {
    w.key(name);
    w.u64("cut_links", links.size());
  }
}

std::string FaultInjector::renderReport(double elapsed_seconds) const {
  util::Table t({"host", "crashes", "downtime (vs)", "availability", "MTTR (vs)"});
  for (const auto& r : report(elapsed_seconds)) {
    t.row() << r.host << r.crashes << r.downtime_seconds << r.availability << r.mttr_seconds;
  }
  std::string out = util::format("faults injected: %lld\n",
                                 static_cast<long long>(injected()));
  if (t.rowCount() > 0) out += t.render();
  return out;
}

}  // namespace mg::fault
