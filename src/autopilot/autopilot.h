// Autopilot-style instrumentation (paper §3.6).
//
// The paper validates internal behaviour by attaching Autopilot sensors to
// program variables and comparing the sampled traces between a physical run
// and a MicroGrid run. Here, SensorRegistry is the board of named sensor
// values: application code updates values (registering on first write);
// monitoring code reads them. Everything runs inside one deterministic
// simulation, so plain doubles suffice.
//
// Sampling is not done here: a monitor registers one obs::TelemetrySampler
// level probe per sensor (NaN until the sensor's first write, so the trace
// starts there) and reads the series back with TimeSeriesRecorder::trace().
// The Fig 17 metric (root-mean-square percentage difference between the
// normalized traces) lives in util::rmsPercentSkew.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace mg::autopilot {

class SensorRegistry {
 public:
  /// Update (creating on first write) a sensor value. Application side.
  void set(const std::string& name, double value);

  /// Increment a counter sensor.
  void increment(const std::string& name, double delta = 1.0);

  bool has(const std::string& name) const;
  double get(const std::string& name) const;
  std::vector<std::string> names() const;
  void clear() { values_.clear(); }

 private:
  std::map<std::string, double> values_;
};

}  // namespace mg::autopilot
