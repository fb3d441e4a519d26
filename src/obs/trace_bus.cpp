#include "obs/trace_bus.h"

#include <cstdio>

namespace mg::obs {

void TraceBus::Channel::record(std::int64_t time, std::string_view kind, double value,
                               std::string_view detail) {
  if (!enabled_) return;
  bus_.events_.push_back(Event{time, name_, std::string(kind), value, std::string(detail)});
}

TraceBus::Channel& TraceBus::channel(const std::string& component) {
  auto it = index_.find(component);
  if (it != index_.end()) return *it->second;
  channels_.push_back(Channel(*this, component));
  Channel& ch = channels_.back();
  index_.emplace(component, &ch);
  for (const auto& [prefix, on] : masks_) {
    if (prefixMatches(prefix, component)) ch.enabled_ = on;
  }
  return ch;
}

bool TraceBus::prefixMatches(const std::string& prefix, const std::string& name) {
  if (prefix.empty() || prefix == name) return true;
  return name.size() > prefix.size() && name.compare(0, prefix.size(), prefix) == 0 &&
         name[prefix.size()] == '.';
}

void TraceBus::setEnabled(const std::string& component_prefix, bool on) {
  masks_.emplace_back(component_prefix, on);
  for (auto& ch : channels_) {
    if (prefixMatches(component_prefix, ch.name_)) ch.enabled_ = on;
  }
}

util::Trace TraceBus::asTrace(std::string_view component, std::string_view kind) const {
  util::Trace out;
  for (const Event& e : events_) {
    if (e.component == component && e.kind == kind) {
      out.emplace_back(static_cast<double>(e.time) * 1e-9, e.value);
    }
  }
  return out;
}

std::string TraceBus::serialize() const {
  std::string out;
  char buf[64];
  for (const Event& e : events_) {
    std::snprintf(buf, sizeof(buf), "%lld ", static_cast<long long>(e.time));
    out += buf;
    out += e.component;
    out += ' ';
    out += e.kind;
    // Fixed %.9g: enough precision for every value the bus records (times in
    // ns, rates, fractions) without the %.17g trailing-digit noise that
    // differs between libm/libc versions. snprintf always renders '.' here
    // because the process never calls setlocale(), so the stream is
    // locale-stable too; serialize(parse(serialize(x))) is byte-identical.
    std::snprintf(buf, sizeof(buf), " %.9g", e.value);
    out += buf;
    if (!e.detail.empty()) {
      out += ' ';
      out += e.detail;
    }
    out += '\n';
  }
  return out;
}

}  // namespace mg::obs
