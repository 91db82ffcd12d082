// Leveled logging to stderr. The simulator core never prints directly;
// warnings and errors reach stderr as "[LEVEL] message", and debug and
// info messages are dropped.
#pragma once

#include <sstream>
#include <string>

namespace dcs {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// The lowest level that reaches stderr.
inline constexpr LogLevel kLogLevel = LogLevel::kWarn;

[[nodiscard]] const char* to_string(LogLevel level) noexcept;

void log_message(LogLevel level, const std::string& message);

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { log_message(level_, stream_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <class T>
  LogLine& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};
}  // namespace detail

}  // namespace dcs

#define DCS_LOG(level)                             \
  if (::dcs::kLogLevel <= ::dcs::LogLevel::level) \
  ::dcs::detail::LogLine(::dcs::LogLevel::level)

#define DCS_LOG_DEBUG DCS_LOG(kDebug)
#define DCS_LOG_INFO DCS_LOG(kInfo)
#define DCS_LOG_WARN DCS_LOG(kWarn)
#define DCS_LOG_ERROR DCS_LOG(kError)
