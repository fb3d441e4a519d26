#include "obs/trace_export.h"

#include <cstdio>
#include <map>
#include <string>

namespace mg::obs {

namespace {

/// Nanoseconds -> microseconds with 3 fractional digits, via integer math
/// only (ts/dur are conventionally microseconds in the trace_event format).
std::string micros(std::int64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld", static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  return buf;
}

void appendArgs(std::string& out, const SpanRecorder::Span& s) {
  out += "\"args\":{\"span\":" + std::to_string(s.id) + ",\"parent\":" + std::to_string(s.parent);
  for (const auto& [k, v] : s.attrs) {
    out += ",\"" + jsonEscape(k) + "\":\"" + jsonEscape(v) + "\"";
  }
  out += "}";
}

}  // namespace

std::string chromeTraceJson(const SpanRecorder& rec, const TimeSeriesRecorder* timeline) {
  // Tracks in sorted name order -> deterministic tid assignment.
  std::map<std::string, int> tids;
  for (const auto& s : rec.spans()) tids.emplace(s.track, 0);
  tids.emplace(std::string(), 0);  // the kernel lane always exists
  int next_tid = 0;
  for (auto& [name, tid] : tids) tid = next_tid++;

  std::string out = "{\"traceEvents\":[";
  out += "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"microgrid\"}}";
  for (const auto& [name, tid] : tids) {
    out += ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(tid) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
           jsonEscape(name.empty() ? "kernel" : name) + "\"}}";
  }

  for (const auto& s : rec.spans()) {
    const int tid = tids.at(s.track);
    out += ",\n{\"name\":\"" + jsonEscape(s.name) + "\",\"cat\":\"" + jsonEscape(s.component) +
           "\",\"pid\":1,\"tid\":" + std::to_string(tid) + ",\"ts\":" + micros(s.start);
    if (s.instant) {
      out += ",\"ph\":\"i\",\"s\":\"t\",";
    } else {
      // A span still open at export time (a daemon parked past the end of
      // the run) renders with zero duration rather than a bogus one.
      const std::int64_t dur = s.end >= s.start ? s.end - s.start : 0;
      out += ",\"ph\":\"X\",\"dur\":" + micros(dur) + ",";
    }
    appendArgs(out, s);
    out += "}";
  }

  if (timeline != nullptr) {
    // Telemetry series as counter tracks: one "C" event per populated
    // bucket, stamped at the bucket start, carrying the bucket mean. The
    // viewer draws each distinctly-named track as its own step graph under
    // the process, beside the span lanes.
    for (const TimeSeriesRecorder::Series* series : timeline->seriesSorted()) {
      TimeSeriesRecorder::forEachBucket(
          *series, [&](std::int64_t start, const TimeSeriesRecorder::Bucket& b) {
            out += ",\n{\"ph\":\"C\",\"pid\":1,\"name\":\"" + jsonEscape(series->name) +
                   "\",\"ts\":" + micros(start) + ",\"args\":{\"value\":" +
                   formatDouble(b.sum / static_cast<double>(b.count)) + "}}";
          });
    }
  }
  out += "\n]}\n";
  return out;
}

}  // namespace mg::obs
