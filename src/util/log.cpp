#include "util/log.h"

#include <iostream>
#include <mutex>

namespace dcs {
namespace {

std::mutex g_stderr_mutex;

}  // namespace

const char* to_string(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
  }
  return "?";
}

void log_message(LogLevel level, const std::string& message) {
  if (level < kLogLevel) return;
  const std::lock_guard lock(g_stderr_mutex);
  std::cerr << '[' << to_string(level) << "] " << message << '\n';
}

}  // namespace dcs
