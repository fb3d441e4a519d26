#include "autopilot/autopilot.h"

#include "util/error.h"

namespace mg::autopilot {

void SensorRegistry::set(const std::string& name, double value) { values_[name] = value; }

void SensorRegistry::increment(const std::string& name, double delta) { values_[name] += delta; }

bool SensorRegistry::has(const std::string& name) const { return values_.count(name) > 0; }

double SensorRegistry::get(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) throw mg::UsageError("no such sensor: " + name);
  return it->second;
}

std::vector<std::string> SensorRegistry::names() const {
  std::vector<std::string> out;
  for (const auto& [k, v] : values_) out.push_back(k);
  return out;
}

}  // namespace mg::autopilot
