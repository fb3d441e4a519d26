// Deterministic time-series recording (DESIGN.md §10 "Time-resolved
// telemetry"). A sim::TelemetrySampler owns one and is its only writer.
//
// A TimeSeriesRecorder holds named series of fixed-capacity, multi-resolution
// bucket rings: each bucket aggregates the samples that fell inside one
// window of `width` nanoseconds as {count, min, max, sum, last}. When a new
// sample lands past the last of the kCapacity buckets, the series *widens*
// — the bucket width doubles and adjacent bucket pairs merge — so memory
// stays O(kCapacity) per series for arbitrarily long runs while the recorded
// aggregates remain an exact function of the sample stream (power-of-two
// widening keeps every original bucket boundary aligned to some later
// boundary, so no sample ever straddles two buckets retroactively).
//
// A series is resolved to an index once (resolve()), and add() takes that
// index, so recording a sample does no name lookup. A series with no sample
// yet is absent from every export and from find()/seriesCount().
//
// Determinism contract: add() order defines the "last" aggregate, and the
// kernel's total (time, seq) event order fixes add() order, so csv()/json()
// are byte-identical across same-seed runs.
//
// Exports: csv() (one row per populated bucket, series sorted by name,
// integer nanosecond bounds, formatDouble values), json() (same data as
// one document) and trace(); obs::chromeTraceJson renders the same buckets
// as counter tracks. All are byte-stable across identical runs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.h"

namespace mg::obs {

class SpanRecorder;

class TimeSeriesRecorder {
 public:
  /// Buckets per series; the time span covered is kCapacity * width, so a
  /// run twice as long as the current span halves the resolution once.
  static constexpr std::size_t kCapacity = 512;

  struct Bucket {
    std::int64_t count = 0;
    double min = 0;
    double max = 0;
    double sum = 0;
    double last = 0;
  };

  struct Series {
    std::string name;
    std::int64_t origin = 0;    // start of bucket 0, set by the first sample
    std::int64_t width = 0;     // current bucket width (ns), doubles on widen
    std::int64_t widenings = 0; // times the resolution halved
    bool started = false;
    std::vector<Bucket> buckets;
  };

  /// Every series starts with buckets `base_width_ns` wide (the sampler's
  /// interval, so early buckets hold exactly one sample).
  explicit TimeSeriesRecorder(std::int64_t base_width_ns);
  TimeSeriesRecorder(const TimeSeriesRecorder&) = delete;
  TimeSeriesRecorder& operator=(const TimeSeriesRecorder&) = delete;

  /// The index of the series named `name`, created empty on its first
  /// resolve; the same name always gives the same index.
  std::size_t resolve(std::string_view name);

  /// Record value `v` for the resolved `series` at simulation time `t` (ns).
  void add(std::size_t series, std::int64_t t, double v);

  /// Lookup (nullptr when absent or not yet sampled). The pointer is valid
  /// until the next resolve() of a new name.
  const Series* find(std::string_view series) const;

  /// The series as a (seconds, last) util::Trace, one point per populated
  /// bucket, stamped with the bucket start — the sampled trace
  /// util::rmsPercentSkew compares. Record it with a sampler whose interval
  /// equals the base width so each tick lands on a bucket start. Exact or
  /// nothing: throws UsageError if the series is missing, has widened, or
  /// holds a bucket with more than one sample.
  util::Trace trace(std::string_view series) const;

  /// Every sampled series in sorted name order (the exporters' order).
  std::vector<const Series*> seriesSorted() const;

  std::size_t seriesCount() const { return started_; }
  std::int64_t sampleCount() const { return samples_; }

  /// One header + one row per populated bucket:
  ///   series,bucket_start_ns,bucket_end_ns,samples,min,max,mean,last
  /// Series in sorted name order; empty buckets are skipped.
  std::string csv() const;

  /// {"series":[{"name":..,"origin_ns":..,"width_ns":..,"widenings":..,
  ///   "buckets":[[start_ns,count,min,max,mean,last],..]},..]} — series in
  /// sorted name order, values via formatDouble.
  std::string json() const;

 private:
  // The counter-track export walks the buckets too (obs/trace_export.h).
  friend std::string chromeTraceJson(const SpanRecorder& rec, const TimeSeriesRecorder* timeline);

  /// f(start_ns, bucket) for every populated bucket of `s`, in time order.
  template <class F>
  static void forEachBucket(const Series& s, F&& f) {
    for (std::size_t i = 0; i < s.buckets.size(); ++i) {
      if (s.buckets[i].count == 0) continue;
      f(s.origin + static_cast<std::int64_t>(i) * s.width, s.buckets[i]);
    }
  }
  static void widen(Series& s);

  std::int64_t base_width_;
  std::vector<Series> series_;
  std::map<std::string, std::size_t, std::less<>> index_;  // name -> series_ slot
  std::size_t started_ = 0;  // series holding at least one sample
  std::int64_t samples_ = 0;
};

}  // namespace mg::obs
