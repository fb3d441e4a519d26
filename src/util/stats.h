// Statistics helpers for the validation experiments: running moments,
// histograms (Fig 7), and the paper's trace "skew" metric (Fig 17: root mean
// square percentage difference between two sampled time series).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace mg::util {

/// Welford-style running mean / variance / extrema accumulator.
class RunningStats {
 public:
  void add(double x);

  std::int64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 with fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::int64_t n_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double sum_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-width-bin histogram over [lo, hi); out-of-range samples are clamped
/// into the first/last bin so nothing is silently dropped. A degenerate
/// lo == hi range is allowed (all mass in bin 0) so callers profiling
/// constant-valued populations need no special case.
class Histogram {
 public:
  Histogram(double lo, double hi, int bins);

  void add(double x);

  double lo() const { return lo_; }
  double hi() const { return hi_; }
  int bins() const { return static_cast<int>(counts_.size()); }
  std::int64_t count(int bin) const { return counts_.at(static_cast<size_t>(bin)); }
  /// Total number of samples (alias kept alongside per-bin count(int)).
  std::int64_t count() const { return total_; }
  std::int64_t total() const { return total_; }
  /// Sum of all added sample values (exact, not binned).
  double sum() const { return sum_; }
  /// Center of the given bin.
  double binCenter(int bin) const;
  /// Fraction of all samples in the given bin (0 if empty histogram).
  double frequency(int bin) const;
  /// Approximate q-quantile (q in [0, 1]) by linear interpolation within the
  /// bin holding the q*total()-th sample. Returns lo() for an empty or
  /// degenerate (lo == hi) histogram; quantile(0)/quantile(1) are the edges
  /// of the first/last populated bin.
  double quantile(double q) const;

  /// Add another histogram's mass into this one, bin by bin. Both must have
  /// identical lo/hi/bins (UsageError otherwise) — merging is meant for
  /// shards of one population, e.g. per-run histograms of a sweep, where all
  /// shards were created from the same spec. Integer bin
  /// counts make the merge exact and order-independent.
  void merge(const Histogram& other);

 private:
  double lo_, hi_;
  std::vector<std::int64_t> counts_;
  std::int64_t total_ = 0;
  double sum_ = 0;
};

/// A sampled time series: (time, value) pairs with non-decreasing times.
using Trace = std::vector<std::pair<double, double>>;

/// Value of the trace at time t by zero-order hold (last sample at or before
/// t; the first value before the first sample). Requires a non-empty trace.
double sampleTrace(const Trace& trace, double t);

/// The paper's internal-validation metric (Section 3.6): both traces are
/// normalized to their own duration, resampled at `samples` common points,
/// and compared as root-mean-square percentage difference relative to the
/// reference trace's value range. Returns a percentage. Throws UsageError for
/// an empty trace or samples < 1 (which would otherwise yield NaN).
double rmsPercentSkew(const Trace& reference, const Trace& measured, int samples = 200);

/// Percentage difference of `measured` relative to `reference`.
double percentError(double reference, double measured);

}  // namespace mg::util
