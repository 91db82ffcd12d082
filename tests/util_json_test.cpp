#include "util/json.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>

namespace dcs::json {
namespace {

TEST(UtilJson, ParsesScalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_TRUE(parse("true").as_bool());
  EXPECT_FALSE(parse("false").as_bool());
  EXPECT_DOUBLE_EQ(parse("3.5").as_number(), 3.5);
  EXPECT_DOUBLE_EQ(parse("-1e3").as_number(), -1000.0);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
}

TEST(UtilJson, ParsesNestedStructures) {
  const Value v = parse(R"({"a": [1, 2, {"b": "c"}], "d": {"e": true}})");
  ASSERT_TRUE(v.is_object());
  const Value& a = v.at("a");
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a[0].as_number(), 1.0);
  EXPECT_EQ(a[2].at("b").as_string(), "c");
  EXPECT_TRUE(v.at("d").at("e").as_bool());
  EXPECT_TRUE(v.has("a"));
  EXPECT_FALSE(v.has("missing"));
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(UtilJson, ParsesStringEscapes) {
  EXPECT_EQ(parse(R"("a\"b\\c\nd\tz")").as_string(), "a\"b\\c\nd\tz");
  EXPECT_EQ(parse(R"("Aé")").as_string(), "A\xc3\xa9");
}

TEST(UtilJson, QuoteEscapesAndRoundTripsThroughParse) {
  EXPECT_EQ(quote("plain.name"), "\"plain.name\"");
  EXPECT_EQ(quote("a\"b\\c\nd\te"), R"("a\"b\\c\nd\te")");
  EXPECT_EQ(quote(std::string("\x01\x1f", 2)), R"("\u0001\u001f")");
  EXPECT_EQ(quote("A\xc3\xa9"), "\"A\xc3\xa9\"");  // bytes >= 0x80 verbatim
  std::string out = "x=";
  append_string(out, "y\"");
  EXPECT_EQ(out, R"(x="y\"")");
  const std::string text("ctl\x02 \"q\" \\ tab\t nl\n", 19);
  EXPECT_EQ(parse(quote(text)).as_string(), text);
}

TEST(UtilJson, NumberOrNullWritesNullForNonFinite) {
  EXPECT_EQ(number_or_null(0.1), "0.10000000000000001");
  EXPECT_EQ(number_or_null(-2.0), "-2");
  EXPECT_EQ(number_or_null(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(number_or_null(std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(UtilJson, RoundTripsPerfRecordNumbers) {
  // %.17g-rendered doubles (the trace/perf writers' format) survive a parse.
  const Value v = parse(R"({"mean_us": 16.699999999999999})");
  EXPECT_DOUBLE_EQ(v.at("mean_us").as_number(), 16.699999999999999);
}

TEST(UtilJson, RejectsMalformedInput) {
  EXPECT_THROW(parse(""), std::invalid_argument);
  EXPECT_THROW(parse("{"), std::invalid_argument);
  EXPECT_THROW(parse("[1,]"), std::invalid_argument);
  EXPECT_THROW(parse("tru"), std::invalid_argument);
  EXPECT_THROW(parse("\"unterminated"), std::invalid_argument);
  EXPECT_THROW(parse("{} extra"), std::invalid_argument);
  EXPECT_THROW(parse("{\"a\": }"), std::invalid_argument);
}

TEST(UtilJson, TypeMismatchesThrow) {
  const Value v = parse("{\"a\": 1}");
  EXPECT_THROW(v.as_array(), std::invalid_argument);
  EXPECT_THROW(v.at("a").as_string(), std::invalid_argument);
  EXPECT_THROW(v.at("missing"), std::invalid_argument);
}

TEST(UtilJson, ParseFileReadsAndRejectsMissing) {
  const std::string path = ::testing::TempDir() + "util_json_test.json";
  {
    std::ofstream out(path);
    out << "{\"x\": [1, 2]}";
  }
  const Value v = parse_file(path);
  EXPECT_EQ(v.at("x").size(), 2u);
  std::remove(path.c_str());
  EXPECT_THROW(parse_file(path), std::invalid_argument);
}

}  // namespace
}  // namespace dcs::json
