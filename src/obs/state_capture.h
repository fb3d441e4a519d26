// Canonical state capture for the fault-schedule explorer (DESIGN.md §11).
//
// A StateWriter folds a layer's observable state into a single 64-bit
// digest (streaming FNV-1a over a canonical byte encoding). Layers expose
// `saveState(StateWriter&)` methods — the state-side sibling of the
// `registerTelemetry` pattern — and a StateCaptureRegistry collects named
// capture functions so a whole platform's state folds into one digest in a
// canonical (name-sorted) order, independent of registration order.
//
// The digest is a run's identity at a pause point: process stacks hold
// pointers into live heap state, so the simulator cannot byte-copy them;
// instead two runs are compared by rebuilding each from its fault plan,
// replaying deterministically to the same virtual time and comparing
// digests. Capturing must therefore be strictly read-only and itself
// deterministic: iterate containers in sorted order, fold doubles by bit
// pattern, never by formatted text.
//
// Digests are conservative: two states with equal digests are treated as
// equal by the explorer's pruning, which is sound because every folded field
// is part of the deterministic replay state — a collision can only merge
// branches whose observable futures were already identical (or, with
// 2^-64 probability, a hash collision, the standard stateless-model-checking
// trade-off).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
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

/// Named capture functions, folded in name-sorted order. The platform and
/// its layers register here once (registerStateCapture), then the explorer
/// calls digest() as often as it likes.
class StateCaptureRegistry {
 public:
  using CaptureFn = std::function<void(StateWriter&)>;

  /// Register `fn` under `name`. Names must be unique; registering a
  /// duplicate replaces the previous function (a restarted component may
  /// legitimately re-register).
  void add(std::string name, CaptureFn fn);

  bool empty() const { return captures_.empty(); }
  std::size_t size() const { return captures_.size(); }

  /// Fold every registered capture, sorted by name, into one digest.
  std::uint64_t digest() const;

 private:
  std::map<std::string, CaptureFn> captures_;
};

}  // namespace mg::obs
