// Minimal leveled logger. Its runtime level is Off, so tests and benches
// stay quiet.
//
// Two-layer gating:
//  * NEZHA_LOG_MIN_LEVEL — a compile-time floor. The level check against it
//    is a constant expression at call sites with a constant level, so a
//    Release build configured with -DNEZHA_LOG_MIN_LEVEL=1 strips every
//    NEZHA_LOG_DEBUG (including its message-building argument) from the
//    datapath entirely.
//  * log_level() — the usual runtime threshold on top of the floor.
//
// Sim-time tagging: a running EventLoop registers itself as the log time
// source, so messages emitted from inside the simulation carry the virtual
// timestamp ("[INFO @1.500ms] ..."); messages from outside carry none.
#pragma once

#include <cstdio>
#include <string>

/// Compile-time log floor: statements below this level compile to nothing.
/// Levels: 0 = Debug, 1 = Info, 2 = Warn, 3 = Error, 4 = Off.
#ifndef NEZHA_LOG_MIN_LEVEL
#define NEZHA_LOG_MIN_LEVEL 0
#endif

namespace nezha::common {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

LogLevel log_level();

/// Virtual-clock hook: when registered, log_message prefixes the current
/// simulated time. The EventLoop installs itself here while running (and
/// restores the previous source on exit, so nested loops behave).
struct LogTimeSource {
  using Fn = long long (*)(void* ctx);  // returns current time in ns
  Fn fn = nullptr;
  void* ctx = nullptr;
};
LogTimeSource log_time_source();
void set_log_time_source(LogTimeSource src);

void log_message(LogLevel level, const std::string& msg);

#define NEZHA_LOG(level, msg)                                      \
  do {                                                             \
    if (static_cast<int>(level) >= NEZHA_LOG_MIN_LEVEL &&          \
        static_cast<int>(level) >=                                 \
            static_cast<int>(::nezha::common::log_level())) {      \
      ::nezha::common::log_message((level), (msg));                \
    }                                                              \
  } while (0)

#define NEZHA_LOG_INFO(msg) NEZHA_LOG(::nezha::common::LogLevel::kInfo, msg)
#define NEZHA_LOG_WARN(msg) NEZHA_LOG(::nezha::common::LogLevel::kWarn, msg)
#define NEZHA_LOG_DEBUG(msg) NEZHA_LOG(::nezha::common::LogLevel::kDebug, msg)

}  // namespace nezha::common
