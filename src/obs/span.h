// Causal span tracing (DESIGN.md "Observability").
//
// A Span is one attributed interval of simulated time: {id, parent,
// component, name, track, start/end sim-time, attrs}. Spans form a forest
// linked by parent ids, so one GRAM job can be followed end-to-end — submit,
// co-allocation, vmpi sends, TCP segments, per-hop packet forwarding,
// scheduler quanta — as a single causal chain. `track` is the rendering lane
// (usually a hostname; "" renders as "kernel").
//
// Ids are deterministic: they are assigned sequentially from 1 in creation
// order, and creation order is fixed because the simulation itself is
// deterministic (single-threaded event dispatch, total (time, seq) event
// order, seeded RNGs). Same-seed runs therefore produce byte-identical span
// trees and exported traces.
//
// Context propagation is cooperative: the recorder holds a "current" span id
// that sim::Simulator saves/restores around event dispatch and process
// slices, spawn() inherits it, and net::Packet carries it across hosts.
// Recording is off by default; when disabled, every entry point is one
// boolean test (the kernel benches must stay within 2% of the untraced
// numbers in BENCH_kernel_perf.json).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace mg::obs {

/// Identifies one recorded span. 0 means "no span" everywhere.
using SpanId = std::uint64_t;

class SpanRecorder {
 public:
  struct Span {
    SpanId id = 0;
    SpanId parent = 0;
    std::string component;  // layer, e.g. "net.tcp"
    std::string name;       // operation, e.g. "segment"
    std::string track;      // rendering lane, usually a hostname
    std::int64_t start = 0;
    std::int64_t end = -1;  // -1 while still open
    std::vector<std::pair<std::string, std::string>> attrs;
    bool instant = false;

    bool open() const { return end < 0 && !instant; }
  };

  /// Counters (obs.span.*) are registered eagerly so the metrics schema does
  /// not depend on whether tracing was enabled. `metrics` may be null in
  /// standalone tests.
  explicit SpanRecorder(MetricsRegistry* metrics = nullptr);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Install the sim-time source (sim::Simulator points this at its clock).
  void setTimeSource(std::function<std::int64_t()> now) { now_ = std::move(now); }

  void setEnabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Open a span parented to current(). Returns 0 (and records nothing)
  /// while disabled. Does not change current(); ScopedSpan does.
  SpanId begin(std::string_view component, std::string_view name, std::string_view track = {});

  /// Open a span with an explicit parent — for causality that crosses
  /// contexts (a packet hop parents to the packet's span, not to whatever
  /// event happens to be dispatching).
  SpanId beginChildOf(SpanId parent, std::string_view component, std::string_view name,
                      std::string_view track = {});

  /// Close an open span at the current time. Idempotent: closing again (or
  /// closing after abortTrack already did) is a no-op, which is what lets
  /// RAII unwinding and crash-abort coexist.
  void end(SpanId id);

  /// end() plus one attribute, recorded only if the span was still open.
  void endWith(SpanId id, std::string_view key, std::string_view value);

  /// Append an attribute to a recorded span (no-op for id 0).
  void annotate(SpanId id, std::string_view key, std::string_view value);

  /// Record a zero-duration marker (fault injections) parented to current().
  SpanId instant(std::string_view component, std::string_view name, std::string_view track = {});

  /// The ambient span new spans parent to. Saved/restored by the simulator
  /// around event dispatch and process slices.
  SpanId current() const { return current_; }
  void setCurrent(SpanId id) { current_ = id; }

  /// Close every span still open on `track` with attr aborted=<reason>.
  /// Called by host crash before the victim processes are killed, so the
  /// ProcessKilled unwind's end() calls find the spans already closed.
  void abortTrack(std::string_view track, std::string_view reason = "host-crash");

  const std::deque<Span>& spans() const { return spans_; }
  const Span* find(SpanId id) const;
  std::size_t size() const { return spans_.size(); }
  std::size_t openCount() const;

  /// Byte-stable one-line-per-span rendering of the whole forest, in id
  /// order — the determinism-test currency (diff two same-seed runs).
  std::string serializeTree() const;

 private:
  Span* mutableFind(SpanId id);
  std::int64_t nowNs() const { return now_ ? now_() : 0; }
  SpanId record(SpanId parent, std::string_view component, std::string_view name,
                std::string_view track, bool instant);

  bool enabled_ = false;
  SpanId current_ = 0;
  std::function<std::int64_t()> now_;
  std::deque<Span> spans_;  // spans_[id - 1]; deque keeps addresses stable

  Counter* c_begun_ = nullptr;
  Counter* c_completed_ = nullptr;
  Counter* c_aborted_ = nullptr;
  Counter* c_instants_ = nullptr;
};

/// RAII span handle: opens on construction (when the recorder is enabled),
/// makes itself the current span, and on destruction closes and restores the
/// previous current span. Inert (all no-ops) when tracing is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string_view component, std::string_view name,
             std::string_view track = {})
      : rec_(rec) {
    if (rec_.enabled()) {
      prev_ = rec_.current();
      id_ = rec_.begin(component, name, track);
      rec_.setCurrent(id_);
    }
  }
  ~ScopedSpan() {
    if (id_ != 0) {
      rec_.end(id_);
      rec_.setCurrent(prev_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// True when a span was actually opened — guard attr-building work.
  bool active() const { return id_ != 0; }
  SpanId id() const { return id_; }
  void annotate(std::string_view key, std::string_view value) {
    if (id_ != 0) rec_.annotate(id_, key, value);
  }

 private:
  SpanRecorder& rec_;
  SpanId id_ = 0;
  SpanId prev_ = 0;
};

}  // namespace mg::obs
