// Canonical state capture for the fault-schedule explorer (DESIGN.md §11).
//
// A StateWriter folds a layer's observable state into a single 64-bit
// digest (streaming FNV-1a over a canonical byte encoding). Each layer has
// a `saveState(StateWriter&) const` method, the state-side sibling of
// `registerTelemetry`, that folds its own fields and then calls those of
// the layers it owns, in a fixed order.
//
// A digest folds state, not history: two runs that reach the same queues,
// clocks, processes and bookkeeping by different paths are one state. So
// the metrics registry, which records what happened, is never folded, and
// adding or bumping a counter moves no digest.
//
// The digest is a run's identity at a pause point: process stacks hold
// pointers into live heap state, so the simulator cannot byte-copy them;
// instead two runs are compared by rebuilding each from its fault plan,
// replaying deterministically to the same virtual time and comparing
// digests. Capturing must therefore be strictly read-only and itself
// deterministic: iterate containers in a fixed order, fold doubles by bit
// pattern, never by formatted text.
//
// The explorer's pruning treats equal digests as equal states. That a fold
// leaves out no field that decides a verdict is checked by the full-replay
// oracle (McExplorer.PrunedVerdictsMatchFullReplay), which requires every
// pruned branch to inherit the outcome its own replay reaches. What remains
// is the 2^-64 chance of a hash collision, the standard stateless-model-
// checking trade-off.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace mg::obs {

/// Streams typed fields into an FNV-1a-64 digest.
class StateWriter {
 public:
  /// Open a named field or section. Keys are folded into the digest, so two
  /// captures agree only when their key sequences agree too.
  void key(std::string_view name);

  void u64(std::string_view name, std::uint64_t v);
  void i64(std::string_view name, std::int64_t v);
  void f64(std::string_view name, double v);  // folded by bit pattern
  void boolean(std::string_view name, bool v);
  void str(std::string_view name, std::string_view v);

  std::uint64_t digest() const { return hash_; }

 private:
  void bytes(const void* data, std::size_t n);

  std::uint64_t hash_ = 0xcbf29ce484222325ull;  // FNV-1a offset basis
};

}  // namespace mg::obs
