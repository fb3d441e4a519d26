#include "obs/span.h"

#include <cstdio>
#include <utility>

namespace mg::obs {

SpanRecorder::SpanRecorder(MetricsRegistry* metrics) {
  if (metrics != nullptr) {
    c_begun_ = &metrics->counter("obs.span.begun");
    c_completed_ = &metrics->counter("obs.span.completed");
    c_aborted_ = &metrics->counter("obs.span.aborted");
    c_instants_ = &metrics->counter("obs.span.instants");
  }
}

SpanId SpanRecorder::record(SpanId parent, std::string_view component, std::string_view name,
                            std::string_view track, bool instant) {
  Span s;
  s.id = static_cast<SpanId>(spans_.size()) + 1;
  s.parent = parent;
  s.component.assign(component);
  s.name.assign(name);
  s.track.assign(track);
  s.start = nowNs();
  s.instant = instant;
  if (instant) s.end = s.start;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

SpanId SpanRecorder::begin(std::string_view component, std::string_view name,
                           std::string_view track) {
  return beginChildOf(current(), component, name, track);
}

SpanId SpanRecorder::beginChildOf(SpanId parent, std::string_view component, std::string_view name,
                                  std::string_view track) {
  if (!enabled_) return 0;
  if (c_begun_) c_begun_->inc();
  return record(parent, component, name, track, /*instant=*/false);
}

void SpanRecorder::end(SpanId id) {
  Span* s = mutableFind(id);
  if (s == nullptr || !s->open()) return;
  s->end = nowNs();
  if (c_completed_) c_completed_->inc();
}

void SpanRecorder::endWith(SpanId id, std::string_view key, std::string_view value) {
  Span* s = mutableFind(id);
  if (s == nullptr || !s->open()) return;
  s->attrs.emplace_back(std::string(key), std::string(value));
  s->end = nowNs();
  if (c_completed_) c_completed_->inc();
}

void SpanRecorder::annotate(SpanId id, std::string_view key, std::string_view value) {
  Span* s = mutableFind(id);
  if (s == nullptr) return;
  s->attrs.emplace_back(std::string(key), std::string(value));
}

SpanId SpanRecorder::instant(std::string_view component, std::string_view name,
                             std::string_view track) {
  if (!enabled_) return 0;
  if (c_instants_) c_instants_->inc();
  return record(current(), component, name, track, /*instant=*/true);
}

void SpanRecorder::abortTrack(std::string_view track, std::string_view reason) {
  const std::int64_t t = nowNs();
  for (Span& s : spans_) {
    if (!s.open() || s.track != track) continue;
    s.attrs.emplace_back("aborted", std::string(reason));
    s.end = t;
    if (c_aborted_) c_aborted_->inc();
  }
}

const SpanRecorder::Span* SpanRecorder::find(SpanId id) const {
  if (id == 0 || id > spans_.size()) return nullptr;
  return &spans_[static_cast<std::size_t>(id - 1)];
}

SpanRecorder::Span* SpanRecorder::mutableFind(SpanId id) {
  return const_cast<Span*>(std::as_const(*this).find(id));
}

std::size_t SpanRecorder::openCount() const {
  std::size_t n = 0;
  for (const Span& s : spans_) {
    if (s.open()) ++n;
  }
  return n;
}

std::string SpanRecorder::serializeTree() const {
  std::string out;
  char buf[64];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof(buf), "#%llu parent=%llu ", static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent));
    out += buf;
    out += s.component;
    out += '.';
    out += s.name;
    out += " track=";
    out += s.track.empty() ? "kernel" : s.track;
    std::snprintf(buf, sizeof(buf), " start=%lld", static_cast<long long>(s.start));
    out += buf;
    if (s.instant) {
      out += " instant";
    } else if (s.end < 0) {
      out += " open";
    } else {
      std::snprintf(buf, sizeof(buf), " end=%lld", static_cast<long long>(s.end));
      out += buf;
    }
    for (const auto& [k, v] : s.attrs) {
      out += ' ';
      out += k;
      out += '=';
      out += v;
    }
    out += '\n';
  }
  return out;
}

}  // namespace mg::obs
