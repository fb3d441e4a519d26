#include "obs/timeline.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/error.h"

namespace mg::obs {

namespace {

TimeSeriesRecorder::Bucket mergePair(const TimeSeriesRecorder::Bucket& a,
                                     const TimeSeriesRecorder::Bucket& b) {
  if (a.count == 0) return b;
  if (b.count == 0) return a;
  TimeSeriesRecorder::Bucket m;
  m.count = a.count + b.count;
  m.min = std::min(a.min, b.min);
  m.max = std::max(a.max, b.max);
  m.sum = a.sum + b.sum;
  m.last = b.last;  // b covers the later window
  return m;
}

}  // namespace

TimeSeriesRecorder::TimeSeriesRecorder(std::int64_t base_width_ns) : base_width_(base_width_ns) {
  if (base_width_ <= 0) throw UsageError("TimeSeriesRecorder wants base_width > 0");
}

std::size_t TimeSeriesRecorder::resolve(std::string_view name) {
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  Series& s = series_.emplace_back();
  s.name = std::string(name);
  s.width = base_width_;
  index_.emplace(s.name, series_.size() - 1);
  return series_.size() - 1;
}

void TimeSeriesRecorder::add(std::size_t series, std::int64_t t, double v) {
  Series& s = series_[series];
  if (!s.started) {
    // Anchor bucket 0 on the first sample, aligned down to the width grid so
    // bucket bounds are round multiples (and widening keeps them so).
    s.origin = t - (t % s.width);
    if (s.origin > t) s.origin -= s.width;  // negative-time defensive floor
    s.started = true;
    ++started_;
  }
  std::int64_t idx = t < s.origin ? 0 : (t - s.origin) / s.width;
  while (idx >= static_cast<std::int64_t>(kCapacity)) {
    widen(s);
    idx = (t - s.origin) / s.width;
  }
  if (static_cast<std::size_t>(idx) >= s.buckets.size()) {
    s.buckets.resize(static_cast<std::size_t>(idx) + 1);
  }
  Bucket& b = s.buckets[static_cast<std::size_t>(idx)];
  if (b.count == 0) {
    b.min = b.max = b.sum = v;
    b.count = 1;
  } else {
    b.min = std::min(b.min, v);
    b.max = std::max(b.max, v);
    b.sum += v;
    ++b.count;
  }
  b.last = v;
  ++samples_;
}

void TimeSeriesRecorder::widen(Series& s) {
  // Double the bucket width in place: pairs (2j, 2j+1) — exact halves of the
  // new window [origin + j*2w, origin + (j+1)*2w) — merge into bucket j. The
  // origin stays, so every new boundary was already a boundary before and no
  // recorded aggregate is ever split.
  const std::size_t n = s.buckets.size();
  const std::size_t merged = (n + 1) / 2;
  for (std::size_t j = 0; j < merged; ++j) {
    const Bucket& a = s.buckets[2 * j];
    s.buckets[j] = (2 * j + 1 < n) ? mergePair(a, s.buckets[2 * j + 1]) : a;
  }
  s.buckets.resize(merged);
  s.width *= 2;
  ++s.widenings;
}

const TimeSeriesRecorder::Series* TimeSeriesRecorder::find(std::string_view series) const {
  auto it = index_.find(series);
  if (it == index_.end() || !series_[it->second].started) return nullptr;
  return &series_[it->second];
}

util::Trace TimeSeriesRecorder::trace(std::string_view series) const {
  const Series* s = find(series);
  const std::string name(series);
  if (s == nullptr) throw UsageError("no timeline series: " + name);
  if (s->widenings > 0) throw UsageError("timeline series widened: " + name);
  util::Trace out;
  forEachBucket(*s, [&](std::int64_t start, const Bucket& b) {
    if (b.count > 1) throw UsageError("timeline series has a multi-sample bucket: " + name);
    out.emplace_back(static_cast<double>(start) * 1e-9, b.last);
  });
  return out;
}

std::vector<const TimeSeriesRecorder::Series*> TimeSeriesRecorder::seriesSorted() const {
  std::vector<const Series*> out;
  out.reserve(started_);
  for (const auto& [name, i] : index_) {
    if (series_[i].started) out.push_back(&series_[i]);
  }
  return out;
}

std::string TimeSeriesRecorder::csv() const {
  std::string out = "series,bucket_start_ns,bucket_end_ns,samples,min,max,mean,last\n";
  for (const Series* s : seriesSorted()) {
    forEachBucket(*s, [&](std::int64_t start, const Bucket& b) {
      out += s->name;
      out += ',' + std::to_string(start);
      out += ',' + std::to_string(start + s->width);
      out += ',' + std::to_string(b.count);
      out += ',' + formatDouble(b.min);
      out += ',' + formatDouble(b.max);
      out += ',' + formatDouble(b.sum / static_cast<double>(b.count));
      out += ',' + formatDouble(b.last);
      out += '\n';
    });
  }
  return out;
}

std::string TimeSeriesRecorder::json() const {
  std::string out = "{\"series\":[";
  bool first_series = true;
  for (const Series* s : seriesSorted()) {
    if (!first_series) out += ',';
    first_series = false;
    out += "{\"name\":\"" + jsonEscape(s->name) +
           "\",\"origin_ns\":" + std::to_string(s->origin) +
           ",\"width_ns\":" + std::to_string(s->width) +
           ",\"widenings\":" + std::to_string(s->widenings) + ",\"buckets\":[";
    bool first_bucket = true;
    forEachBucket(*s, [&](std::int64_t start, const Bucket& b) {
      if (!first_bucket) out += ',';
      first_bucket = false;
      out += '[' + std::to_string(start) + ',' + std::to_string(b.count) + ',' +
             formatDouble(b.min) + ',' + formatDouble(b.max) + ',' +
             formatDouble(b.sum / static_cast<double>(b.count)) + ',' + formatDouble(b.last) +
             ']';
    });
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace mg::obs
