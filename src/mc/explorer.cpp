#include "mc/explorer.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/error.h"
#include "util/strings.h"
#include "util/units.h"

namespace mg::mc {

namespace {

std::string signatureOf(const std::vector<fault::FaultEvent>& firing) {
  if (firing.empty()) return "(none)";
  std::string sig;
  for (const auto& ev : firing) {
    if (!sig.empty()) sig += ",";
    sig += ev.name + "@" + obs::formatDouble(ev.at);
  }
  return sig;
}

std::string hex64(std::uint64_t v) {
  return util::format("%016llx", static_cast<unsigned long long>(v));
}

/// When the event and the inverse it schedules are both over.
double overAt(const fault::FaultEvent& ev, double at) {
  return ev.duration > 0 ? at + ev.duration : at;
}

}  // namespace

Explorer::Explorer(ScenarioFactory factory, std::vector<CandidateFault> candidates,
                   ExploreOptions opts)
    : factory_(std::move(factory)), candidates_(std::move(candidates)),
      opts_(std::move(opts)) {
  for (auto& c : candidates_) {
    if (c.times.empty()) c.times = {c.event.at};
    std::sort(c.times.begin(), c.times.end());
    c.times.erase(std::unique(c.times.begin(), c.times.end()), c.times.end());
    for (double t : c.times) {
      if (t < 0) throw ConfigError("candidate '" + c.event.name + "' has a negative time");
      quiescence_ = std::max(quiescence_, overAt(c.event, t));
    }
  }
  for (const auto& ev : opts_.base.events()) {
    quiescence_ = std::max(quiescence_, overAt(ev, ev.at));
  }
}

std::string Explorer::Outcome::render() const {
  return util::format("%s%s end=%s digest=%s", violation.empty() ? "ok" : "VIOLATION ",
                      violation.c_str(), obs::formatDouble(end).c_str(),
                      hex64(digest).c_str());
}

void Explorer::resolveTouches() {
  // One probe instance resolves every candidate's touched topology nodes
  // (and validates targets before the enumeration invests any work).
  const std::unique_ptr<ScenarioRun> probe = factory_(opts_.base);
  const net::Topology& topo = probe->platform->network().topology();
  touches_.clear();
  for (const auto& c : candidates_) {
    Touch t;
    switch (c.event.kind) {
      case fault::FaultKind::LinkDown:
      case fault::FaultKind::LinkUp:
      case fault::FaultKind::LinkDegrade: {
        const net::LinkId lid = topo.findLink(c.event.target);
        if (lid == net::kNoLink) {
          throw ConfigError("candidate '" + c.event.name + "': unknown link '" +
                            c.event.target + "'");
        }
        t.nodes.insert(topo.node(topo.link(lid).a).name);
        t.nodes.insert(topo.node(topo.link(lid).b).name);
        break;
      }
      case fault::FaultKind::HostCrash:
      case fault::FaultKind::HostRestart:
      case fault::FaultKind::CpuBrownout: {
        if (topo.findNode(c.event.target) == net::kNoNode) {
          throw ConfigError("candidate '" + c.event.name + "': unknown host '" +
                            c.event.target + "'");
        }
        t.nodes.insert(c.event.target);
        break;
      }
      case fault::FaultKind::Partition:
      case fault::FaultKind::Heal:
        // A partition's cut (and what a heal mends) depends on current link
        // state, so these conservatively depend on everything.
        t.universal = true;
        break;
    }
    touches_.push_back(std::move(t));
  }
}

bool Explorer::independent(int a, int b) const {
  const Touch& ta = touches_[static_cast<std::size_t>(a)];
  const Touch& tb = touches_[static_cast<std::size_t>(b)];
  if (ta.universal || tb.universal) return false;
  for (const auto& n : ta.nodes) {
    if (tb.nodes.count(n) > 0) return false;
  }
  return true;
}

std::vector<std::vector<int>> Explorer::orderings(const std::vector<int>& group,
                                                  ExploreStats& stats) const {
  if (group.size() <= 1) return {group};
  std::vector<int> perm = group;  // candidate order = ascending indices
  std::sort(perm.begin(), perm.end());
  std::vector<std::vector<int>> keep;
  do {
    // One representative per commutation class: reject any ordering with an
    // adjacent independent pair out of canonical (index) order — swapping
    // that pair yields an equivalent, already-kept ordering.
    bool canonical = true;
    for (std::size_t i = 0; i + 1 < perm.size(); ++i) {
      if (perm[i] > perm[i + 1] && independent(perm[i], perm[i + 1])) {
        canonical = false;
        break;
      }
    }
    if (canonical || !opts_.causal_reduction) {
      keep.push_back(perm);
    } else {
      ++stats.pruned_causal;
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  return keep;
}

fault::FaultPlan Explorer::planFor(const std::vector<fault::FaultEvent>& events) const {
  fault::FaultPlan plan = opts_.base;
  // add() stable-sorts by time, so appending in firing order realizes the
  // chosen same-time ordering (ties keep insertion order).
  for (const auto& ev : events) plan.add(ev);
  return plan;
}

void Explorer::runSchedule(const std::vector<fault::FaultEvent>& firing,
                           ExploreResult& out) {
  if (stop_) return;
  if (opts_.budget > 0 && out.stats.enumerated >= opts_.budget) {
    stop_ = true;
    return;
  }
  const std::int64_t idx = ++out.stats.enumerated;
  const std::string sig = util::format("[%s]", signatureOf(firing).c_str());
  auto log = [&](const std::string& line) {
    out.branch_log.push_back(util::format("#%lld ", static_cast<long long>(idx)) + line);
  };

  fault::FaultPlan plan = planFor(firing);
  std::unique_ptr<ScenarioRun> run;
  try {
    run = factory_(plan);
  } catch (const mg::Error& e) {
    // E.g. a heal whose partition was skipped this schedule: not a bug,
    // just an inconsistent combination — logged and skipped.
    log(sig + " invalid: " + e.what());
    return;
  }

  // Step decision point by decision point; at each, the digest plus the
  // yet-to-fire suffix identify this branch's entire future. Every key this
  // replay inserts gets its outcome once that is known, whether the replay
  // reaches the end or is pruned at a later point.
  std::vector<Outcome*> inserted;
  Outcome outcome;
  bool pruned = false;
  if (opts_.hash_pruning) {
    std::vector<double> decisions{quiescence_};
    for (const auto& ev : firing) decisions.push_back(ev.at);
    std::sort(decisions.begin(), decisions.end());
    decisions.erase(std::unique(decisions.begin(), decisions.end()), decisions.end());
    for (double t : decisions) {
      // A run that drains at or before t keeps its own clock, so its digest
      // (and end time) are the run's own, never t.
      run->runTo(t);
      const std::uint64_t d = run->digest();
      std::string suffix;
      for (const auto& ev : firing) {
        if (ev.at <= t) continue;
        suffix += ev.name + "@" + obs::formatDouble(ev.at) + "|";
      }
      const auto [it, fresh] = memo_.try_emplace({d, std::move(suffix)});
      if (!fresh) {
        ++out.stats.pruned_hash;
        outcome = it->second;
        log(sig + " pruned@" + obs::formatDouble(t) + " digest=" + hex64(d) + " " +
            outcome.render());
        pruned = true;
        break;
      }
      inserted.push_back(&it->second);
    }
  }

  if (!pruned) {
    outcome.end = run->runToEnd();
    ++out.stats.runs;
    const std::vector<Violation> vs = checkInvariants(*run);
    if (!vs.empty()) outcome.violation = vs.front().invariant + ": " + vs.front().detail;
    outcome.digest = run->digest();
    log(sig + " " + outcome.render());
  }
  for (Outcome* o : inserted) *o = outcome;
  if (outcome.violation.empty()) return;
  ++out.stats.violations;
  // A pruned branch inherits from an earlier replay, so the first violating
  // schedule is always a replayed one.
  if (!out.violation_found) {
    out.violation_found = true;
    out.first_violation = outcome.violation;
    out.violating_plan = plan;
  }
  if (opts_.stop_at_first_violation) stop_ = true;
}

void Explorer::enumerateOrders(const std::map<double, std::vector<int>>& groups,
                               std::map<double, std::vector<int>>::const_iterator it,
                               std::vector<fault::FaultEvent>& firing,
                               ExploreResult& out) {
  if (stop_) return;
  if (it == groups.end()) {
    runSchedule(firing, out);
    return;
  }
  const double at = it->first;
  auto next = std::next(it);
  for (const std::vector<int>& order : orderings(it->second, out.stats)) {
    const std::size_t mark = firing.size();
    for (int c : order) {
      fault::FaultEvent ev = candidates_[static_cast<std::size_t>(c)].event;
      ev.at = at;
      firing.push_back(std::move(ev));
    }
    enumerateOrders(groups, next, firing, out);
    firing.resize(mark);
    if (stop_) return;
  }
}

void Explorer::assignTimes(std::size_t idx, std::vector<double>& chosen,
                           std::vector<bool>& present, ExploreResult& out) {
  if (stop_) return;
  if (idx == candidates_.size()) {
    std::map<double, std::vector<int>> groups;  // time -> candidates, index order
    for (std::size_t i = 0; i < candidates_.size(); ++i) {
      if (present[i]) groups[chosen[i]].push_back(static_cast<int>(i));
    }
    std::vector<fault::FaultEvent> firing;
    enumerateOrders(groups, groups.begin(), firing, out);
    return;
  }
  for (double t : candidates_[idx].times) {
    chosen[idx] = t;
    present[idx] = true;
    assignTimes(idx + 1, chosen, present, out);
    if (stop_) return;
  }
  if (candidates_[idx].optional) {
    present[idx] = false;
    assignTimes(idx + 1, chosen, present, out);
  }
}

ExploreResult Explorer::explore() {
  ExploreResult out;
  memo_.clear();
  stop_ = false;
  resolveTouches();
  std::vector<double> chosen(candidates_.size(), 0);
  std::vector<bool> present(candidates_.size(), false);
  assignTimes(0, chosen, present, out);
  if (out.violation_found && opts_.minimize) {
    out.minimal_plan = minimize(out.violating_plan);
  }
  return out;
}

bool Explorer::violates(const fault::FaultPlan& plan) {
  try {
    const std::unique_ptr<ScenarioRun> run = factory_(plan);
    run->runToEnd();
    return !checkInvariants(*run).empty();
  } catch (const mg::Error&) {
    return false;  // an invalid trimmed plan cannot reproduce the bug
  }
}

fault::FaultPlan Explorer::minimize(const fault::FaultPlan& bad) {
  // Greedy delta-debugging: repeatedly drop any event whose removal keeps
  // the violation alive, until no single removal does.
  std::vector<fault::FaultEvent> events = bad.events();
  bool changed = true;
  while (changed && events.size() > 1) {
    changed = false;
    for (std::size_t i = events.size(); i-- > 0;) {
      std::vector<fault::FaultEvent> trial = events;
      trial.erase(trial.begin() + static_cast<std::ptrdiff_t>(i));
      fault::FaultPlan p;
      for (const auto& ev : trial) p.add(ev);
      if (violates(p)) {
        events = std::move(trial);
        changed = true;
      }
    }
  }
  fault::FaultPlan minimal;
  for (const auto& ev : events) minimal.add(ev);
  return minimal;
}

std::string ExploreResult::renderStats() const {
  std::string out;
  out += util::format("schedules enumerated:       %lld\n",
                      static_cast<long long>(stats.enumerated));
  out += util::format("schedules replayed:         %lld\n",
                      static_cast<long long>(stats.runs));
  out += util::format("pruned (state hash):        %lld\n",
                      static_cast<long long>(stats.pruned_hash));
  out += util::format("orderings pruned (causal):  %lld\n",
                      static_cast<long long>(stats.pruned_causal));
  out += util::format("violations:                 %lld\n",
                      static_cast<long long>(stats.violations));
  return out;
}

Explorer::Spec Explorer::parseSpec(const util::Config& cfg) {
  Spec spec;
  const auto explore_secs = cfg.sectionsOfType("explore");
  if (explore_secs.size() > 1) throw ConfigError("multiple [explore] sections");
  if (!explore_secs.empty()) {
    const util::ConfigSection& sec = *explore_secs.front();
    spec.options.budget = static_cast<int>(sec.getInt("budget", 0));
    if (spec.options.budget < 0) throw ConfigError("[explore] budget must be >= 0");
    spec.options.hash_pruning = sec.getBool("hash_pruning", true);
    spec.options.causal_reduction = sec.getBool("causal_reduction", true);
    spec.options.stop_at_first_violation = sec.getBool("stop_at_first_violation", false);
    spec.options.minimize = sec.getBool("minimize", true);
    for (const std::string& key : sec.keys()) {
      if (key != "budget" && key != "hash_pruning" && key != "causal_reduction" &&
          key != "stop_at_first_violation" && key != "minimize") {
        throw ConfigError("[explore]: unknown key '" + key + "'");
      }
    }
  }
  std::set<std::string> names;
  for (const auto* sec : cfg.sectionsOfType("candidate")) {
    CandidateFault c;
    c.event = fault::FaultPlan::parseEvent(*sec, {"times", "optional"});
    if (!names.insert(c.event.name).second) {
      throw ConfigError("duplicate candidate '" + c.event.name + "'");
    }
    if (sec->has("times")) {
      for (const auto& t : util::splitTrim(sec->getString("times"), ',')) {
        c.times.push_back(util::parseTime(t));
      }
      if (c.times.empty()) {
        throw ConfigError("candidate '" + c.event.name + "' has an empty times list");
      }
    }
    c.optional = sec->getBool("optional", true);
    spec.candidates.push_back(std::move(c));
  }
  if (spec.candidates.empty()) {
    throw ConfigError("explore spec has no [candidate ...] sections");
  }
  return spec;
}

}  // namespace mg::mc
