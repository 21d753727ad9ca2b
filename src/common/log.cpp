#include "src/common/log.h"

#include "src/common/time.h"

namespace nezha::common {
namespace {
LogLevel g_level = LogLevel::kOff;
// Thread-local: each sharded-engine worker installs its own shard loop as
// the time source while running (EventLoop's LogTimeScope); single-thread
// behavior is unchanged.
thread_local LogTimeSource g_time_source{};

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}
}  // namespace

LogLevel log_level() { return g_level; }

LogTimeSource log_time_source() { return g_time_source; }
void set_log_time_source(LogTimeSource src) { g_time_source = src; }

void log_message(LogLevel level, const std::string& msg) {
  if (g_time_source.fn != nullptr) {
    const long long t_ns = g_time_source.fn(g_time_source.ctx);
    std::fprintf(stderr, "[%s @%s] %s\n", level_name(level),
                 format_duration(t_ns).c_str(), msg.c_str());
  } else {
    std::fprintf(stderr, "[%s] %s\n", level_name(level), msg.c_str());
  }
}

}  // namespace nezha::common
