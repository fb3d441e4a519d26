// The unified cross-layer metrics registry (DESIGN.md "Observability").
//
// Every layer registers its named instruments here (packet counts,
// scheduler quanta, vmpi byte counts, GIS query counts, NPB progress
// sensors, ...); no layer keeps a second copy of a published value. Names
// follow `layer.component.counter`, e.g. "net.packet.sent" or
// "vos.sched.quanta".
//
// Hot-path cost is one pointer-indirected integer increment: components
// resolve `Counter&` handles once at construction and bump them directly.
// Handles are stable for the registry's lifetime (instruments live in a
// deque and are never removed). Snapshots render as util::Table or JSON,
// in sorted name order, so two identical runs produce byte-identical output.
//
// A registry belongs to one sim::Simulator (sim::Simulator::metrics()), so
// independent simulations never share state and same-seed runs stay
// deterministic.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "util/stats.h"
#include "util/table.h"

namespace mg::obs {

/// Shortest double formatting that still round-trips exactly — the shared
/// currency of every byte-stable JSON/table snapshot in this layer.
std::string formatDouble(double v);

/// Minimal JSON string escaping (quotes, backslashes, newlines).
std::string jsonEscape(const std::string& s);

/// A monotonically increasing integer instrument. Single writer: the
/// simulator's thread bumps it with a plain load and store. The value is an
/// atomic only so that a signal handler (obs::ProgressMonitor's stall
/// watchdog) reads it whole.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void inc(std::int64_t n = 1) {
    v_.store(v_.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// A double-valued instrument: settable (level) or accumulating (total).
/// Single writer, like Counter.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double v) {
    v_.store(v_.load(std::memory_order_relaxed) + v, std::memory_order_relaxed);
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0};
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Create-or-get by name. The returned reference stays valid for the
  /// registry's lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Create-or-get; lo/hi/bins apply only on creation (a later lookup with
  /// different bounds returns the existing histogram unchanged).
  util::Histogram& histogram(const std::string& name, double lo, double hi, int bins);

  /// Fast existence/read-only queries (0 / nullptr when absent).
  std::int64_t counterValue(const std::string& name) const;
  double gaugeValue(const std::string& name) const;
  /// Lookup without creating: a writer that publishes only when someone
  /// registered the gauge (npb progress sensors) holds on to this pointer.
  Gauge* findGauge(const std::string& name);
  const util::Histogram* findHistogram(const std::string& name) const;

  /// One row per instrument, sorted by name: (metric, type, value).
  /// Histograms report their total sample count; per-bin data is in JSON.
  util::Table snapshotTable() const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {"lo": ..,
  /// "hi": .., "total": .., "bins": [..]}}} with sorted keys — byte-stable
  /// across identical runs. A non-finite gauge (a sensor registered but not
  /// yet written reads NaN) renders as null, since JSON has no NaN.
  std::string snapshotJson() const;

  /// "metric,type,value" header + one row per instrument in the same merged
  /// name-sorted order as snapshotTable() — the spreadsheet/plot-pipeline
  /// form (mgrun --metrics=csv). Counters render as integers, gauges via
  /// formatDouble, histograms as their total sample count.
  std::string snapshotCsv() const;

 private:
  // Instruments live in deques (stable addresses); maps index by name.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<util::Histogram> histograms_;
  std::map<std::string, Counter*> counter_index_;
  std::map<std::string, Gauge*> gauge_index_;
  std::map<std::string, util::Histogram*> histogram_index_;
};

}  // namespace mg::obs
