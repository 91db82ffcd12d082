#include "util/config.h"

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>

namespace dcs {
namespace {

TEST(Config, FromArgs) {
  const std::array<const char*, 2> args = {"k=v", "n=3"};
  const Config c = Config::from_args(args);
  EXPECT_EQ(c.get_string("k", ""), "v");
  EXPECT_EQ(c.get_count("n", 0), 3u);
}

TEST(Config, FromArgsRejectsBareTokens) {
  const std::array<const char*, 1> args = {"novalue"};
  EXPECT_THROW((void)Config::from_args(args), std::invalid_argument);
}

TEST(Config, FromArgsRejectsMalformedKeys) {
  const std::array<const char*, 1> dashed = {"--pdus=8"};
  EXPECT_THROW((void)Config::from_args(dashed), std::invalid_argument);
  const std::array<const char*, 1> spaced = {"pd us=8"};
  EXPECT_THROW((void)Config::from_args(spaced), std::invalid_argument);
  const std::array<const char*, 1> empty_key = {"=8"};
  EXPECT_THROW((void)Config::from_args(empty_key), std::invalid_argument);
  // Dots and underscores stay legal (config-file style keys).
  const std::array<const char*, 1> dotted = {"fleet.pdu_count=4"};
  EXPECT_EQ(Config::from_args(dotted).get_count("fleet.pdu_count", 0), 4u);
}

TEST(Config, RequireKnownAcceptsAllowedKeys) {
  const std::array<const char*, 2> args = {"pdus=8", "csv=out"};
  const Config c = Config::from_args(args);
  const std::array<std::string_view, 3> allowed = {"pdus", "csv", "pue"};
  EXPECT_NO_THROW(c.require_known(allowed));
  EXPECT_NO_THROW(Config().require_known(allowed));
}

TEST(Config, RequireKnownRejectsUnknownKeys) {
  const std::array<const char*, 2> args = {"pdus=8", "pduss=9"};
  const Config c = Config::from_args(args);
  const std::array<std::string_view, 2> allowed = {"pdus", "csv"};
  try {
    c.require_known(allowed);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("pduss"), std::string::npos)
        << "must name the offending key: " << what;
    EXPECT_NE(what.find("pdus"), std::string::npos)
        << "must list the allowed keys: " << what;
  }
}

TEST(Config, TypedGettersFallBack) {
  const Config c;
  EXPECT_EQ(c.get_string("missing", "def"), "def");
  EXPECT_DOUBLE_EQ(c.get_double("missing", 1.5), 1.5);
  EXPECT_EQ(c.get_count("missing", 7), 7u);
}

TEST(Config, DoubleParsing) {
  const std::array<const char*, 3> args = {"x=2.5", "bad=abc", "partial=1.5x"};
  const Config c = Config::from_args(args);
  EXPECT_DOUBLE_EQ(c.get_double("x", 0.0), 2.5);
  EXPECT_THROW((void)c.get_double("bad", 0.0), std::invalid_argument);
  EXPECT_THROW((void)c.get_double("partial", 0.0), std::invalid_argument);
}

TEST(Config, CountParsing) {
  const std::array<const char*, 6> args = {
      "x=5", "negative=-1", "fraction=1.5", "word=abc",
      "huge=18446744073709551616", "max=18446744073709551615"};
  const Config c = Config::from_args(args);
  EXPECT_EQ(c.get_count("x", 0), 5u);
  EXPECT_EQ(c.get_count("max", 0), 18446744073709551615u);
  for (const char* key : {"negative", "fraction", "word", "huge"}) {
    try {
      (void)c.get_count(key, 0);
      ADD_FAILURE() << key << " parsed as a count";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << "must name the key: " << e.what();
    }
  }
}

TEST(Config, SetOverwrites) {
  Config c;
  c.set("k", "1");
  c.set("k", "2");
  EXPECT_EQ(c.get_count("k", 0), 2u);
}

}  // namespace
}  // namespace dcs
