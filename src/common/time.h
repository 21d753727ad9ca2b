// Simulated-time primitives.
//
// All simulator time is virtual and expressed as integer nanoseconds to keep
// event ordering exact and runs reproducible. We deliberately do not use
// std::chrono clocks anywhere in the simulation core: wall-clock time never
// influences results.
#pragma once

#include <cstdint>
#include <string>

namespace nezha::common {

/// Duration in virtual nanoseconds. Signed so that differences are safe.
using Duration = std::int64_t;

/// Absolute virtual time in nanoseconds since simulation start.
using TimePoint = std::int64_t;

inline constexpr Duration kNanosecond = 1;
inline constexpr Duration kMicrosecond = 1'000;
inline constexpr Duration kMillisecond = 1'000'000;
inline constexpr Duration kSecond = 1'000'000'000;

constexpr Duration microseconds(std::int64_t n) { return n * kMicrosecond; }
constexpr Duration milliseconds(std::int64_t n) { return n * kMillisecond; }
constexpr Duration seconds(std::int64_t n) { return n * kSecond; }

/// Converts a duration to fractional seconds (for reporting only).
constexpr double to_seconds(Duration d) {
  return static_cast<double>(d) / static_cast<double>(kSecond);
}

/// Converts a duration to fractional milliseconds (for reporting only).
constexpr double to_millis(Duration d) {
  return static_cast<double>(d) / static_cast<double>(kMillisecond);
}

/// Converts a duration to fractional microseconds (for reporting only).
constexpr double to_micros(Duration d) {
  return static_cast<double>(d) / static_cast<double>(kMicrosecond);
}

/// Converts fractional seconds to a duration, rounding to nearest ns.
constexpr Duration from_seconds(double s) {
  return static_cast<Duration>(s * static_cast<double>(kSecond) + 0.5);
}

/// Human-readable rendering, e.g. "1.500ms", "2.000s", used in logs/benches.
std::string format_duration(Duration d);

}  // namespace nezha::common
