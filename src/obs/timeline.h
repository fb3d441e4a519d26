// Deterministic time-series recording (DESIGN.md §10 "Time-resolved
// telemetry").
//
// A TimeSeriesRecorder holds named series of fixed-capacity, multi-resolution
// bucket rings: each bucket aggregates the samples that fell inside one
// window of `width` nanoseconds as {count, min, max, sum, last}. When a new
// sample lands past the last bucket the ring would hold, the series *widens*
// — the bucket width doubles and adjacent bucket pairs merge — so memory
// stays O(capacity) per series for arbitrarily long runs while the recorded
// aggregates remain an exact function of the sample stream (power-of-two
// widening keeps every original bucket boundary aligned to some later
// boundary, so no sample ever straddles two buckets retroactively).
//
// Determinism contract: add() order defines the "last" aggregate, and the
// kernel's total (time, seq) event order fixes add() order, so csv()/json()
// are byte-identical across same-seed runs.
//
// Exports: csv() (one row per populated bucket, series sorted by name,
// integer nanosecond bounds, formatDouble values) and json() (same data as
// one document). Both are byte-stable across identical runs.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.h"

namespace mg::obs {

class TimeSeriesRecorder {
 public:
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

  struct Options {
    /// Buckets per series; the time span covered is capacity * width, so a
    /// run twice as long as the current span halves the resolution once.
    std::size_t capacity = 512;
    /// Initial bucket width in nanoseconds (callers usually match the
    /// sampler interval so early buckets hold exactly one sample).
    std::int64_t base_width_ns = 100'000'000;  // 100 ms
    /// New series past this cap are dropped (counted in droppedSeries()) —
    /// a guard against per-link registration on 10k+-link topologies.
    std::size_t max_series = 4096;
  };

  TimeSeriesRecorder() : TimeSeriesRecorder(Options{}) {}
  explicit TimeSeriesRecorder(Options opts);
  TimeSeriesRecorder(const TimeSeriesRecorder&) = delete;
  TimeSeriesRecorder& operator=(const TimeSeriesRecorder&) = delete;

  /// Reset the initial bucket width. Affects series created afterwards;
  /// callers set it before sampling starts (mgrun --timeline-interval).
  void setBaseWidth(std::int64_t width_ns);

  /// Record value `v` for `series` at simulation time `t` (ns).
  void add(std::string_view series, std::int64_t t, double v);

  /// Lookup (nullptr when absent). The pointer is stable for the recorder's
  /// lifetime (series live in a deque).
  const Series* find(std::string_view series) const;

  /// The series as a (seconds, last) util::Trace, one point per populated
  /// bucket, stamped with the bucket start — the sampled trace
  /// util::rmsPercentSkew compares. Record it with a sampler whose interval
  /// equals the base width so each tick lands on a bucket start. Exact or
  /// nothing: throws UsageError if the series is missing, has widened, or
  /// holds a bucket with more than one sample.
  util::Trace trace(std::string_view series) const;

  /// Every series in sorted name order (the exporters' iteration order).
  std::vector<const Series*> seriesSorted() const;

  std::size_t seriesCount() const { return index_.size(); }
  std::int64_t sampleCount() const { return samples_; }
  std::int64_t droppedSeries() const { return dropped_series_; }

  /// One header + one row per populated bucket:
  ///   series,bucket_start_ns,bucket_end_ns,samples,min,max,mean,last
  /// Series in sorted name order; empty buckets are skipped.
  std::string csv() const;

  /// {"series":[{"name":..,"origin_ns":..,"width_ns":..,"widenings":..,
  ///   "buckets":[[start_ns,count,min,max,mean,last],..]},..]} — series in
  /// sorted name order, values via formatDouble.
  std::string json() const;

 private:
  Series& getOrCreate(std::string_view name);
  static void widen(Series& s);

  Options opts_;
  std::deque<Series> series_;               // stable addresses
  std::map<std::string, Series*, std::less<>> index_;
  std::int64_t samples_ = 0;
  std::int64_t dropped_series_ = 0;
};

}  // namespace mg::obs
