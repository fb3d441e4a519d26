// Simulation time: signed 64-bit nanoseconds.
//
// Integer time makes event ordering exact and runs reproducible across
// platforms; doubles are converted at the API boundary only.
#pragma once

#include <cstdint>

namespace mg::sim {

using SimTime = std::int64_t;  // nanoseconds

constexpr SimTime kNanosecond = 1;
constexpr SimTime kMicrosecond = 1000;
constexpr SimTime kMillisecond = 1000 * kMicrosecond;
constexpr SimTime kSecond = 1000 * kMillisecond;

/// Seconds beyond which fromSeconds() would overflow SimTime (2^63 ns is
/// about 9.22e9 s, ~292 years); a little margin below the exact limit.
constexpr double kMaxSeconds = 9.2e9;

/// One tick of SimTime in seconds: the shortest interval a seconds-valued
/// input can name without rounding to zero.
constexpr double kTickSeconds = 1.0 / static_cast<double>(kSecond);

/// Convert seconds (double) to SimTime, rounding to the nearest nanosecond.
/// `s` must lie within +-kMaxSeconds.
constexpr SimTime fromSeconds(double s) {
  return static_cast<SimTime>(s * static_cast<double>(kSecond) + (s >= 0 ? 0.5 : -0.5));
}

/// Convert SimTime to seconds.
constexpr double toSeconds(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kSecond);
}

}  // namespace mg::sim
