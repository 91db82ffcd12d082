#include "util/log.h"

#include <gtest/gtest.h>

#include <string>

namespace dcs {
namespace {

/// Runs `log` and returns what it wrote to stderr.
template <class Log>
std::string stderr_of(Log log) {
  ::testing::internal::CaptureStderr();
  log();
  return ::testing::internal::GetCapturedStderr();
}

TEST(LogTest, MacroFormatsAndRoutes) {
  EXPECT_EQ(stderr_of([] { DCS_LOG_WARN << "value=" << 42; }),
            "[WARN] value=42\n");
}

TEST(LogTest, LevelFilters) {
  EXPECT_EQ(stderr_of([] {
              DCS_LOG_DEBUG << "dropped";
              DCS_LOG_INFO << "dropped too";
              DCS_LOG_ERROR << "kept";
            }),
            "[ERROR] kept\n");
}

TEST(LogTest, LevelNames) {
  EXPECT_STREQ(to_string(LogLevel::kDebug), "DEBUG");
  EXPECT_STREQ(to_string(LogLevel::kInfo), "INFO");
  EXPECT_STREQ(to_string(LogLevel::kWarn), "WARN");
  EXPECT_STREQ(to_string(LogLevel::kError), "ERROR");
}

TEST(LogTest, DirectLogMessage) {
  EXPECT_EQ(stderr_of([] {
              log_message(LogLevel::kInfo, "below the level");
              log_message(LogLevel::kWarn, "direct");
            }),
            "[WARN] direct\n");
}

}  // namespace
}  // namespace dcs
