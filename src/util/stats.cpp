#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace mg::util {

void RunningStats::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

Histogram::Histogram(double lo, double hi, int bins) : lo_(lo), hi_(hi) {
  if (!(hi >= lo) || bins <= 0) throw UsageError("invalid histogram bounds/bins");
  counts_.assign(static_cast<size_t>(bins), 0);
}

void Histogram::add(double x) {
  std::int64_t bin = 0;
  if (hi_ > lo_) {
    const double w = (hi_ - lo_) / static_cast<double>(counts_.size());
    bin = static_cast<std::int64_t>(std::floor((x - lo_) / w));
    bin = std::clamp<std::int64_t>(bin, 0, static_cast<std::int64_t>(counts_.size()) - 1);
  }
  ++counts_[static_cast<size_t>(bin)];
  ++total_;
  sum_ += x;
}

void Histogram::merge(const Histogram& other) {
  if (lo_ != other.lo_ || hi_ != other.hi_ || counts_.size() != other.counts_.size()) {
    throw UsageError("Histogram::merge wants identical lo/hi/bins");
  }
  for (std::size_t b = 0; b < counts_.size(); ++b) counts_[b] += other.counts_[b];
  total_ += other.total_;
  sum_ += other.sum_;
}

double Histogram::binCenter(int bin) const {
  if (hi_ == lo_) return lo_;
  const double w = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + (bin + 0.5) * w;
}

double Histogram::quantile(double q) const {
  if (!(q >= 0.0) || !(q <= 1.0)) throw UsageError("quantile wants q in [0, 1]");
  if (total_ == 0 || hi_ == lo_) return lo_;
  const double target = q * static_cast<double>(total_);
  const double w = (hi_ - lo_) / static_cast<double>(counts_.size());
  double cum = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const double c = static_cast<double>(counts_[b]);
    if (c == 0) continue;
    if (cum + c >= target) {
      const double frac = (target - cum) / c;
      const double v = lo_ + (static_cast<double>(b) + frac) * w;
      return std::clamp(v, lo_, hi_);
    }
    cum += c;
  }
  // q == 1 (or floating-point shortfall): the upper edge of the last
  // populated bin.
  for (std::size_t b = counts_.size(); b-- > 0;) {
    if (counts_[b] != 0) return std::min(lo_ + static_cast<double>(b + 1) * w, hi_);
  }
  return hi_;
}

double Histogram::frequency(int bin) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(count(bin)) / static_cast<double>(total_);
}

double sampleTrace(const Trace& trace, double t) {
  if (trace.empty()) throw UsageError("sampleTrace on empty trace");
  if (t <= trace.front().first) return trace.front().second;
  // Last element with time <= t.
  auto it = std::upper_bound(
      trace.begin(), trace.end(), t,
      [](double v, const std::pair<double, double>& s) { return v < s.first; });
  return std::prev(it)->second;
}

double rmsPercentSkew(const Trace& reference, const Trace& measured, int samples) {
  if (reference.empty() || measured.empty()) {
    throw UsageError("rmsPercentSkew on empty trace");
  }
  if (samples < 1) throw UsageError("rmsPercentSkew wants samples >= 1");
  const double ref_t0 = reference.front().first;
  const double ref_t1 = reference.back().first;
  const double mea_t0 = measured.front().first;
  const double mea_t1 = measured.back().first;
  // Value range of the reference, for normalization: percentage errors of a
  // near-zero-valued sample would otherwise blow up.
  double vmin = reference.front().second, vmax = vmin;
  for (const auto& [t, v] : reference) {
    vmin = std::min(vmin, v);
    vmax = std::max(vmax, v);
  }
  double range = vmax - vmin;
  if (range == 0.0) range = (vmax == 0.0) ? 1.0 : std::fabs(vmax);

  double sumsq = 0;
  for (int i = 0; i < samples; ++i) {
    const double f = (samples == 1) ? 0.0 : static_cast<double>(i) / (samples - 1);
    const double rv = sampleTrace(reference, ref_t0 + f * (ref_t1 - ref_t0));
    const double mv = sampleTrace(measured, mea_t0 + f * (mea_t1 - mea_t0));
    const double pct = 100.0 * (mv - rv) / range;
    sumsq += pct * pct;
  }
  return std::sqrt(sumsq / samples);
}

double percentError(double reference, double measured) {
  if (reference == 0.0) return measured == 0.0 ? 0.0 : 100.0;
  return 100.0 * (measured - reference) / reference;
}

}  // namespace mg::util
