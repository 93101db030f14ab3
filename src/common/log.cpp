#include "common/log.hpp"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <string>

namespace explora::common {

namespace {

// Relaxed: a severity threshold toggle that publishes no data.
std::atomic<LogLevel> g_level{LogLevel::kWarn};

/// Serializes sink writes so lines emitted by concurrent pool workers
/// never interleave. Always the innermost lock: logging is legal while
/// holding any other lock, and must itself call out to nothing.
std::mutex& sink_mutex() {
  static std::mutex mutex;
  return mutex;
}

[[nodiscard]] const char* level_name(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

}  // namespace

void set_log_level(LogLevel level) noexcept {
  g_level.store(level, std::memory_order_relaxed);
}

LogLevel log_level() noexcept {
  return g_level.load(std::memory_order_relaxed);
}

void log_line(LogLevel level, std::string_view component,
              std::string_view message) {
  if (level < log_level()) return;
  std::string line;
  line.reserve(component.size() + message.size() + 16);
  line += '[';
  line += level_name(level);
  line += "] [";
  line += component;
  line += "] ";
  line += message;
  line += '\n';
  const std::lock_guard<std::mutex> lock(sink_mutex());
  std::fputs(line.c_str(), stderr);
}

}  // namespace explora::common
