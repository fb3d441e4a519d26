// The deterministic trace bus (DESIGN.md "Observability").
//
// Components publish typed events (sim_time, component, kind, value, detail)
// onto per-component channels instead of printf-style tracing. Channels are
// resolved once at construction; a disabled channel costs one boolean test
// per would-be event. Recording is fully deterministic — events are ordered
// by the simulation itself, and serialize() renders a byte-stable text
// stream, so same-seed runs can be diffed for equality (the repo's
// internal-validation analogue of the paper's §3.6 skew checks).
//
// Numeric event values double as samples: asTrace() extracts a
// util::Trace (time-in-seconds, value) series for one (component, kind),
// ready for util::rmsPercentSkew.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.h"

namespace mg::obs {

class TraceBus {
 public:
  struct Event {
    std::int64_t time = 0;  // sim::SimTime (nanoseconds)
    std::string component;
    std::string kind;
    double value = 0;
    std::string detail;
  };

  /// One component's publishing handle. Obtain via TraceBus::channel().
  class Channel {
   public:
    bool enabled() const { return enabled_; }
    const std::string& name() const { return name_; }
    /// Record an event (no-op while the channel is disabled). `time` is the
    /// current simulation time in nanoseconds.
    void record(std::int64_t time, std::string_view kind, double value,
                std::string_view detail = {});

   private:
    friend class TraceBus;
    Channel(TraceBus& bus, std::string name) : bus_(bus), name_(std::move(name)) {}
    TraceBus& bus_;
    std::string name_;
    bool enabled_ = false;
  };

  TraceBus() = default;
  TraceBus(const TraceBus&) = delete;
  TraceBus& operator=(const TraceBus&) = delete;

  /// Create-or-get a channel; the reference stays valid for the bus's
  /// lifetime. New channels honour any enable mask already set for them.
  Channel& channel(const std::string& component);

  /// Enable/disable by component name or dotted prefix: "net" matches
  /// "net.packet" and "net.flow"; "" matches everything. Applies to existing
  /// channels and to channels created later.
  void setEnabled(const std::string& component_prefix, bool on);

  const std::vector<Event>& events() const { return events_; }
  void clear() { events_.clear(); }

  /// (seconds, value) series of every event on one (component, kind).
  util::Trace asTrace(std::string_view component, std::string_view kind) const;

  /// Byte-stable text rendering: one "<time_ns> <component> <kind> <value>
  /// [detail]" line per event.
  std::string serialize() const;

 private:
  friend class Channel;
  static bool prefixMatches(const std::string& prefix, const std::string& name);

  std::deque<Channel> channels_;
  std::map<std::string, Channel*> index_;
  // Enable masks, applied to late-created channels too (insertion order;
  // later entries win so enable-then-disable behaves intuitively).
  std::vector<std::pair<std::string, bool>> masks_;
  std::vector<Event> events_;
};

}  // namespace mg::obs
