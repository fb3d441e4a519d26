#include "obs/metrics.h"

#include <cmath>
#include <cstdio>

namespace mg::obs {

/// Shortest round-trippable formatting for doubles, so snapshots are
/// byte-stable and lossless.
std::string formatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Prefer the shortest representation that round-trips.
  for (int prec = 1; prec < 17; ++prec) {
    char probe[32];
    std::snprintf(probe, sizeof(probe), "%.*g", prec, v);
    double back = 0;
    std::sscanf(probe, "%lf", &back);
    if (back == v) return probe;
  }
  return buf;
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  auto it = counter_index_.find(name);
  if (it != counter_index_.end()) return *it->second;
  counters_.emplace_back();
  counter_index_.emplace(name, &counters_.back());
  return counters_.back();
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  auto it = gauge_index_.find(name);
  if (it != gauge_index_.end()) return *it->second;
  gauges_.emplace_back();
  gauge_index_.emplace(name, &gauges_.back());
  return gauges_.back();
}

util::Histogram& MetricsRegistry::histogram(const std::string& name, double lo, double hi,
                                            int bins) {
  auto it = histogram_index_.find(name);
  if (it != histogram_index_.end()) return *it->second;
  histograms_.emplace_back(lo, hi, bins);
  histogram_index_.emplace(name, &histograms_.back());
  return histograms_.back();
}

std::int64_t MetricsRegistry::counterValue(const std::string& name) const {
  auto it = counter_index_.find(name);
  return it == counter_index_.end() ? 0 : it->second->value();
}

double MetricsRegistry::gaugeValue(const std::string& name) const {
  auto it = gauge_index_.find(name);
  return it == gauge_index_.end() ? 0.0 : it->second->value();
}

Gauge* MetricsRegistry::findGauge(const std::string& name) {
  auto it = gauge_index_.find(name);
  return it == gauge_index_.end() ? nullptr : it->second;
}

const util::Histogram* MetricsRegistry::findHistogram(const std::string& name) const {
  auto it = histogram_index_.find(name);
  return it == histogram_index_.end() ? nullptr : it->second;
}

util::Table MetricsRegistry::snapshotTable() const {
  // One merged, name-sorted view; the maps are already sorted, so a
  // three-way merge keeps the overall ordering deterministic.
  util::Table t({"metric", "type", "value"});
  auto ci = counter_index_.begin();
  auto gi = gauge_index_.begin();
  auto hi = histogram_index_.begin();
  while (ci != counter_index_.end() || gi != gauge_index_.end() || hi != histogram_index_.end()) {
    const std::string* cn = ci != counter_index_.end() ? &ci->first : nullptr;
    const std::string* gn = gi != gauge_index_.end() ? &gi->first : nullptr;
    const std::string* hn = hi != histogram_index_.end() ? &hi->first : nullptr;
    const std::string* least = cn;
    if (gn && (!least || *gn < *least)) least = gn;
    if (hn && (!least || *hn < *least)) least = hn;
    if (least == cn) {
      t.row() << ci->first << "counter" << static_cast<long long>(ci->second->value());
      ++ci;
    } else if (least == gn) {
      t.row() << gi->first << "gauge" << formatDouble(gi->second->value());
      ++gi;
    } else {
      t.row() << hi->first << "histogram"
              << (std::to_string(hi->second->total()) + " samples");
      ++hi;
    }
  }
  return t;
}

std::string MetricsRegistry::snapshotCsv() const {
  // Same three-way name-sorted merge as snapshotTable, in CSV dress.
  // Instrument names never contain commas or quotes, so no field escaping.
  std::string out = "metric,type,value\n";
  auto ci = counter_index_.begin();
  auto gi = gauge_index_.begin();
  auto hi = histogram_index_.begin();
  while (ci != counter_index_.end() || gi != gauge_index_.end() || hi != histogram_index_.end()) {
    const std::string* cn = ci != counter_index_.end() ? &ci->first : nullptr;
    const std::string* gn = gi != gauge_index_.end() ? &gi->first : nullptr;
    const std::string* hn = hi != histogram_index_.end() ? &hi->first : nullptr;
    const std::string* least = cn;
    if (gn && (!least || *gn < *least)) least = gn;
    if (hn && (!least || *hn < *least)) least = hn;
    if (least == cn) {
      out += ci->first + ",counter," + std::to_string(ci->second->value()) + "\n";
      ++ci;
    } else if (least == gn) {
      out += gi->first + ",gauge," + formatDouble(gi->second->value()) + "\n";
      ++gi;
    } else {
      out += hi->first + ",histogram," + std::to_string(hi->second->total()) + "\n";
      ++hi;
    }
  }
  return out;
}

std::string MetricsRegistry::snapshotJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counter_index_) {
    if (!first) out += ',';
    first = false;
    out += '"' + jsonEscape(name) + "\":" + std::to_string(c->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauge_index_) {
    if (!first) out += ',';
    first = false;
    const double v = g->value();
    out += '"' + jsonEscape(name) + "\":" + (std::isfinite(v) ? formatDouble(v) : "null");
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histogram_index_) {
    if (!first) out += ',';
    first = false;
    out += '"' + jsonEscape(name) + "\":{\"lo\":" + formatDouble(h->lo()) +
           ",\"hi\":" + formatDouble(h->hi()) + ",\"total\":" + std::to_string(h->total()) +
           ",\"bins\":[";
    for (int b = 0; b < h->bins(); ++b) {
      if (b) out += ',';
      out += std::to_string(h->count(b));
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

}  // namespace mg::obs
