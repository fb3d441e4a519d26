// Exhaustive fault-schedule exploration — model checking, lite
// (DESIGN.md §11).
//
// Given a scenario factory and a set of *candidate* faults, each with a
// menu of injection times, the explorer enumerates every schedule (one time
// choice — or skip — per candidate, times every firing order of same-time
// groups), replays each schedule from scratch through the deterministic
// factory, and checks the invariant surface (mc/invariants.h) at the end.
// Two reductions keep the enumeration honest but affordable:
//
//   causal-order reduction   same-time events whose touched topology-node
//       sets are disjoint commute; of each equivalence class of orderings,
//       only the representative with no adjacent out-of-order independent
//       pair is run (partitions and heals touch the whole fabric, so they
//       conservatively depend on everything).
//
//   state-hash pruning       while replaying, the platform digest is taken
//       after each decision time; if (digest, remaining suffix) was already
//       explored, this schedule's future is byte-identical to one already
//       checked: the replay stops early and the branch inherits that
//       twin's outcome (verdict, end time, final digest), so a pruned
//       violating branch still counts as a violation.
//
// The decision times are the schedule's fault times plus the quiescence
// time T_q: the latest `at + duration` (`at` for a permanent fault) over
// every candidate time and every base event, derived from the menu. At T_q
// every fault has fired and healed, so the remaining suffix is empty and
// schedules that converged by then share one memo key however their
// prefixes differed. A run whose event queue drains before a decision
// point has ended there, and keeps its own clock: Simulator::runUntil moves
// the clock to the limit only while events remain, so a drained run's
// digest and end time are its own and it is memoized like any other.
//
// On a violation, the explorer greedily delta-debugs the schedule down to a
// minimal reproducing FaultPlan and serializes it as INI — feed it back
// through `mgrun --faults` (or the FaultInjector directly) to replay the
// bug outside the explorer.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "mc/invariants.h"
#include "mc/scenario.h"
#include "util/config.h"

namespace mg::mc {

/// One explorable fault: an event template (its `at` is the nominal time)
/// plus the candidate injection times the explorer may choose from.
struct CandidateFault {
  fault::FaultEvent event;
  std::vector<double> times;  // candidate times; empty means {event.at}
  bool optional = true;       // the explorer may also leave it out entirely
};

struct ExploreOptions {
  /// Stop after this many schedules enumerated (run + pruned); 0 = no cap.
  int budget = 0;
  /// false: replay every schedule to the end without pausing (the oracle
  /// pruned verdicts are checked against).
  bool hash_pruning = true;
  bool causal_reduction = true;
  /// Keep exploring after the first violation (all violations are counted;
  /// only the first is minimized).
  bool stop_at_first_violation = false;
  /// Delta-debug the first violating schedule down to a minimal plan.
  bool minimize = true;
  /// Fixed faults injected in every schedule, on top of the candidates.
  fault::FaultPlan base;
};

struct ExploreStats {
  std::int64_t enumerated = 0;     // schedules visited (runs + pruned)
  std::int64_t runs = 0;           // replayed to the end (each pruned one is not)
  std::int64_t pruned_hash = 0;    // stopped early by (digest, suffix) memo
  std::int64_t pruned_causal = 0;  // orderings cut by independence
  std::int64_t violations = 0;     // replayed or inherited by a pruned branch
};

struct ExploreResult {
  ExploreStats stats;
  /// One deterministic line per schedule: index, signature, outcome, end
  /// time, final digest; a pruned one names its pause point and digest
  /// before the outcome it inherits.
  /// Byte-identical across runs — the explorer's own determinism gate.
  std::vector<std::string> branch_log;
  bool violation_found = false;
  std::string first_violation;      // "invariant: detail" of the first hit
  fault::FaultPlan violating_plan;  // the full first violating schedule
  fault::FaultPlan minimal_plan;    // its delta-debugged reproduction
  std::string renderStats() const;
};

class Explorer {
 public:
  Explorer(ScenarioFactory factory, std::vector<CandidateFault> candidates,
           ExploreOptions opts = {});

  /// Enumerate, replay, check. Deterministic: equal inputs give equal
  /// results, branch logs included.
  ExploreResult explore();

  /// The [explore] + [candidate ...] dialect (examples/grids/*explore*.ini):
  ///
  ///   [explore]
  ///   budget = 200              # optional; 0 = unlimited
  ///   hash_pruning = true
  ///   causal_reduction = true
  ///
  ///   [candidate crash]
  ///   at = 1s                   # nominal time (used when `times` is absent)
  ///   kind = host_crash
  ///   target = vm3.ucsd.edu
  ///   times = 0.5s, 1s, 2s      # the menu the explorer chooses from
  ///   optional = true           # may also be skipped entirely
  ///
  /// Candidate sections take every key their fault kind accepts, plus
  /// `times` and `optional`; unknown keys are rejected like [fault] ones.
  struct Spec {
    ExploreOptions options;
    std::vector<CandidateFault> candidates;
  };
  static Spec parseSpec(const util::Config& cfg);

 private:
  /// How a replayed schedule ended; a pruned branch inherits its twin's.
  struct Outcome {
    std::string violation;  // "invariant: detail" of the first hit; "" = ok
    double end = 0;
    std::uint64_t digest = 0;
    std::string render() const;
  };

  struct Touch {
    bool universal = false;       // depends on everything (partition, heal)
    std::set<std::string> nodes;  // topology node names touched
  };

  void resolveTouches();
  bool independent(int a, int b) const;
  /// Keep exactly the orderings with no adjacent out-of-order independent
  /// pair (one representative per commutation class).
  std::vector<std::vector<int>> orderings(const std::vector<int>& group,
                                          ExploreStats& stats) const;
  void assignTimes(std::size_t idx, std::vector<double>& chosen,
                   std::vector<bool>& present, ExploreResult& out);
  void enumerateOrders(const std::map<double, std::vector<int>>& groups,
                       std::map<double, std::vector<int>>::const_iterator it,
                       std::vector<fault::FaultEvent>& firing, ExploreResult& out);
  void runSchedule(const std::vector<fault::FaultEvent>& firing, ExploreResult& out);
  bool violates(const fault::FaultPlan& plan);
  fault::FaultPlan minimize(const fault::FaultPlan& bad);
  fault::FaultPlan planFor(const std::vector<fault::FaultEvent>& events) const;

  ScenarioFactory factory_;
  std::vector<CandidateFault> candidates_;
  ExploreOptions opts_;
  std::vector<Touch> touches_;
  double quiescence_ = 0;  // T_q: every candidate and base fault is over
  std::map<std::pair<std::uint64_t, std::string>, Outcome> memo_;  // (digest, suffix)
  bool stop_ = false;
};

}  // namespace mg::mc
