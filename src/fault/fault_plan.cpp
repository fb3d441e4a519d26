#include "fault/fault_plan.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/error.h"
#include "util/strings.h"

namespace mg::fault {

FaultKind faultKindFromString(const std::string& s) {
  const std::string t = util::toLower(s);
  if (t == "link_down") return FaultKind::LinkDown;
  if (t == "link_up") return FaultKind::LinkUp;
  if (t == "link_degrade") return FaultKind::LinkDegrade;
  if (t == "host_crash") return FaultKind::HostCrash;
  if (t == "host_restart") return FaultKind::HostRestart;
  if (t == "cpu_brownout") return FaultKind::CpuBrownout;
  if (t == "partition") return FaultKind::Partition;
  if (t == "heal") return FaultKind::Heal;
  throw ConfigError("unknown fault kind '" + s + "'");
}

std::string faultKindName(FaultKind k) {
  switch (k) {
    case FaultKind::LinkDown: return "link_down";
    case FaultKind::LinkUp: return "link_up";
    case FaultKind::LinkDegrade: return "link_degrade";
    case FaultKind::HostCrash: return "host_crash";
    case FaultKind::HostRestart: return "host_restart";
    case FaultKind::CpuBrownout: return "cpu_brownout";
    case FaultKind::Partition: return "partition";
    case FaultKind::Heal: return "heal";
  }
  return "?";
}

namespace {

/// The keys each fault kind accepts (beyond the universal at/kind).
std::vector<std::string_view> allowedKeys(FaultKind k) {
  switch (k) {
    case FaultKind::LinkDown: return {"target", "duration"};
    case FaultKind::LinkUp: return {"target"};
    case FaultKind::LinkDegrade:
      return {"target", "loss", "latency_mult", "bandwidth_mult", "duration"};
    case FaultKind::HostCrash: return {"target", "duration"};
    case FaultKind::HostRestart: return {"target"};
    case FaultKind::CpuBrownout: return {"target", "factor", "duration"};
    case FaultKind::Partition: return {"nodes", "duration"};
    case FaultKind::Heal: return {"target"};
  }
  return {};
}

}  // namespace

FaultEvent FaultPlan::parseEvent(const util::ConfigSection& sec,
                                 std::initializer_list<std::string_view> extra_allowed) {
  FaultEvent ev;
  ev.name = sec.name();
  ev.at = sec.getTime("at");
  if (ev.at < 0) throw ConfigError("fault '" + ev.name + "' has negative time");
  ev.kind = faultKindFromString(sec.getString("kind"));

  // Reject unknown keys loudly: a misspelled `duration` would otherwise
  // silently turn a transient fault into a permanent one.
  const std::vector<std::string_view> allowed = allowedKeys(ev.kind);
  for (const std::string& key : sec.keys()) {
    if (key == "at" || key == "kind") continue;
    const bool known =
        std::find(allowed.begin(), allowed.end(), key) != allowed.end() ||
        std::find(extra_allowed.begin(), extra_allowed.end(), key) != extra_allowed.end();
    if (!known) {
      std::string msg = "fault '" + ev.name + "': unknown key '" + key + "' for kind " +
                        faultKindName(ev.kind) + " (accepted: at, kind";
      for (std::string_view a : allowed) msg += ", " + std::string(a);
      for (std::string_view a : extra_allowed) msg += ", " + std::string(a);
      throw ConfigError(msg + ")");
    }
  }

  const bool needs_target = ev.kind != FaultKind::Partition && ev.kind != FaultKind::Heal;
  if (needs_target) {
    ev.target = sec.getString("target");
  } else {
    ev.target = sec.getString("target", "");
  }
  if (sec.has("nodes")) {
    for (const auto& n : util::splitTrim(sec.getString("nodes"), ',')) {
      if (!n.empty()) ev.nodes.push_back(n);
    }
  }
  if (ev.kind == FaultKind::Partition && ev.nodes.empty()) {
    throw ConfigError("partition fault '" + ev.name + "' needs a nodes list");
  }
  if (sec.has("loss")) {
    // Negative is the "loss unchanged" sentinel, so only [0, 1) is a loss.
    ev.loss = sec.getDouble("loss");
    if (!(ev.loss >= 0 && ev.loss < 1.0)) {
      throw ConfigError("fault '" + ev.name + "': loss must be in [0, 1), got " +
                        obs::formatDouble(ev.loss));
    }
  }
  ev.latency_mult = sec.getDouble("latency_mult", 1.0);
  ev.bandwidth_mult = sec.getDouble("bandwidth_mult", 1.0);
  ev.factor = sec.getDouble("factor", 1.0);
  if (sec.has("duration")) {
    ev.duration = sec.getTime("duration");
    if (ev.duration <= 0) throw ConfigError("fault '" + ev.name + "' has non-positive duration");
    const bool restorable = ev.kind == FaultKind::LinkDown || ev.kind == FaultKind::LinkDegrade ||
                            ev.kind == FaultKind::HostCrash ||
                            ev.kind == FaultKind::CpuBrownout ||
                            ev.kind == FaultKind::Partition;
    if (!restorable) {
      throw ConfigError("fault '" + ev.name + "' of kind " + faultKindName(ev.kind) +
                        " cannot take a duration");
    }
  }
  if (ev.kind == FaultKind::CpuBrownout && (ev.factor <= 0 || ev.factor > 1.0)) {
    throw ConfigError("brownout fault '" + ev.name + "' needs factor in (0, 1]");
  }
  if (ev.kind == FaultKind::LinkDegrade) {
    // bandwidth_mult = 0 is legal: it stalls fluid flows (and starves the
    // packet queues) until a restore; negative capacity is meaningless.
    if (ev.bandwidth_mult < 0) {
      throw ConfigError("degrade fault '" + ev.name + "' has negative bandwidth_mult");
    }
    if (ev.latency_mult < 0) {
      throw ConfigError("degrade fault '" + ev.name + "' has negative latency_mult");
    }
    if (ev.loss < 0 && ev.latency_mult == 1.0 && ev.bandwidth_mult == 1.0) {
      throw ConfigError("degrade fault '" + ev.name + "' changes nothing");
    }
  }
  return ev;
}

FaultPlan FaultPlan::fromConfig(const util::Config& cfg) {
  FaultPlan plan;
  for (const auto* sec : cfg.sectionsOfType("fault")) {
    plan.events_.push_back(parseEvent(*sec));
  }
  // Stable: same-time events keep file order (determinism).
  std::stable_sort(plan.events_.begin(), plan.events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  return plan;
}

FaultPlan FaultPlan::fromFile(const std::string& path) {
  return fromConfig(util::Config::parseFile(path));
}

void FaultPlan::add(FaultEvent ev) {
  events_.push_back(std::move(ev));
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
}

void FaultPlan::merge(const FaultPlan& other) {
  for (const auto& ev : other.events_) events_.push_back(ev);
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
}

std::string FaultPlan::toIni() const {
  std::string out;
  for (const FaultEvent& ev : events_) {
    if (!out.empty()) out += "\n";
    out += "[fault " + ev.name + "]\n";
    out += "at = " + obs::formatDouble(ev.at) + "s\n";
    out += "kind = " + faultKindName(ev.kind) + "\n";
    if (!ev.target.empty()) out += "target = " + ev.target + "\n";
    if (!ev.nodes.empty()) {
      out += "nodes = ";
      for (std::size_t i = 0; i < ev.nodes.size(); ++i) {
        if (i > 0) out += ", ";
        out += ev.nodes[i];
      }
      out += "\n";
    }
    if (ev.kind == FaultKind::LinkDegrade) {
      if (ev.loss >= 0) out += "loss = " + obs::formatDouble(ev.loss) + "\n";
      if (ev.latency_mult != 1.0) {
        out += "latency_mult = " + obs::formatDouble(ev.latency_mult) + "\n";
      }
      if (ev.bandwidth_mult != 1.0) {
        out += "bandwidth_mult = " + obs::formatDouble(ev.bandwidth_mult) + "\n";
      }
    }
    if (ev.kind == FaultKind::CpuBrownout) {
      out += "factor = " + obs::formatDouble(ev.factor) + "\n";
    }
    if (ev.duration > 0) out += "duration = " + obs::formatDouble(ev.duration) + "s\n";
  }
  return out;
}

}  // namespace mg::fault
