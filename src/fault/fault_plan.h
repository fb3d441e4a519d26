// A FaultPlan is a deterministic schedule of fault events parsed from the
// same INI dialect as grid configs:
//
//   [fault wan-outage]
//   at       = 12s            # virtual time
//   kind     = link_down
//   target   = la-chi
//   duration = 5s             # optional: auto-restore (link_up) afterwards
//
//   [fault degrade]
//   at             = 3s
//   kind           = link_degrade
//   target         = la-chi
//   loss           = 0.02     # absolute loss rate in [0, 1) (omit to keep)
//   latency_mult   = 4        # multiplies current latency
//   bandwidth_mult = 0.25     # multiplies current bandwidth
//   duration       = 10s      # optional: restore saved parameters
//
//   [fault crash]
//   at       = 20s
//   kind     = host_crash
//   target   = vm1.ucsd.edu
//   duration = 8s             # optional: host_restart afterwards
//
//   [fault brownout]
//   at     = 5s
//   kind   = cpu_brownout
//   target = vm0.ucsd.edu
//   factor = 0.3              # CPU scaled to 30%
//   duration = 4s             # optional: restore full speed
//
//   [fault split]
//   at    = 9s
//   kind  = partition
//   nodes = vm0.ucsd.edu, vm1.ucsd.edu   # this set vs. the rest
//
//   [fault mend]
//   at     = 15s
//   kind   = heal
//   target = split            # name of the partition to heal (empty: all)
//
// Events are kept stable-sorted by `at`, so same-time events fire in file
// order — part of the byte-determinism guarantee for fault runs.
#pragma once

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "util/config.h"

namespace mg::fault {

enum class FaultKind {
  LinkDown,
  LinkUp,
  LinkDegrade,
  HostCrash,
  HostRestart,
  CpuBrownout,
  Partition,
  Heal,
};

FaultKind faultKindFromString(const std::string& s);
std::string faultKindName(FaultKind k);

struct FaultEvent {
  double at = 0;  // virtual seconds
  FaultKind kind = FaultKind::LinkDown;
  std::string name;    // section name; doubles as the partition id
  std::string target;  // link name, hostname, or partition id (heal)
  std::vector<std::string> nodes;  // partition: the isolated node set
  double loss = -1;            // link_degrade: absolute loss rate; < 0 keeps
  double latency_mult = 1.0;   // link_degrade multipliers
  double bandwidth_mult = 1.0;
  double factor = 1.0;         // cpu_brownout: fraction of full speed
  double duration = 0;         // > 0: schedule the inverse event afterwards

  bool operator==(const FaultEvent&) const = default;
};

class FaultPlan {
 public:
  /// Collect every [fault ...] section of a parsed config.
  static FaultPlan fromConfig(const util::Config& cfg);

  /// Parse the file at `path` and collect its [fault ...] sections.
  static FaultPlan fromFile(const std::string& path);

  /// Programmatic construction (tests); keeps the schedule sorted.
  void add(FaultEvent ev);

  /// Merge another plan's events into this one (e.g. --faults file on top
  /// of the grid config's own [fault] sections).
  void merge(const FaultPlan& other);

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }

  /// Parse one [fault ...] section. Keys outside the kind's accepted set are
  /// rejected with a message naming the key and the accepted keys —
  /// misspelling `duration` must not silently yield a permanent fault.
  /// `extra_allowed` lets embedding dialects (the explorer's [candidate ...]
  /// sections carry a `times` list) pass their own keys through.
  static FaultEvent parseEvent(const util::ConfigSection& sec,
                               std::initializer_list<std::string_view> extra_allowed = {});

  /// Serialize as the same INI dialect fromConfig parses: one
  /// `[fault <name>]` section per event, schedule order, keys in canonical
  /// order, values via round-trip double formatting. An empty plan yields
  /// an empty string; parse(toIni(p)) == p for any valid plan — the
  /// explorer's minimal-reproduction output format.
  std::string toIni() const;

 private:
  std::vector<FaultEvent> events_;  // stable-sorted by `at`
};

}  // namespace mg::fault
