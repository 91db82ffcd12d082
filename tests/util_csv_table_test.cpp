#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "util/csv.h"
#include "util/table.h"

namespace dcs {
namespace {

TEST(CsvEscape, PlainFieldUnchanged) {
  EXPECT_EQ(csv_escape("hello"), "hello");
  EXPECT_EQ(csv_escape(""), "");
}

TEST(CsvEscape, QuotesCommasAndNewlines) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvWriter, WritesRows) {
  std::ostringstream out;
  CsvWriter w(out);
  w.write_row({"time", "value"});
  w.write_row({"1", "a,b"});
  EXPECT_EQ(out.str(), "time,value\n1,\"a,b\"\n");
}

TEST(CsvWriter, NumericRowFormatting) {
  std::ostringstream out;
  CsvWriter w(out);
  w.write_numeric_row({1.0, 2.5, 1e-3});
  EXPECT_EQ(out.str(), "1,2.5,0.001\n");
}

TEST(FormatDouble, Precision) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_double(1.0, 0), "1");
  EXPECT_EQ(format_double(-0.5, 3), "-0.500");
}

TEST(TablePrinter, RejectsEmptyHeadersAndRaggedRows) {
  EXPECT_THROW((void)TablePrinter({}), std::invalid_argument);
  TablePrinter t({"a", "b"});
  EXPECT_THROW((void)t.add_row({"only one"}), std::invalid_argument);
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter t({"name", "v"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "2"});
  std::ostringstream out;
  t.print(out);
  const std::string s = out.str();
  // Header, separator, two rows.
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("------"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  // Every line has the same column start for "v" / values.
  const auto header_pos = s.find("v");
  ASSERT_NE(header_pos, std::string::npos);
}

TEST(TablePrinter, NumericAndMixedRows) {
  TablePrinter t({"k", "x", "y"});
  t.add_row("row", {1.5, 2.25}, 2);
  t.add_row("other", {3.0, 4.0}, 1);
  std::ostringstream out;
  t.print(out);
  EXPECT_NE(out.str().find("1.50"), std::string::npos);
  EXPECT_NE(out.str().find("4.0"), std::string::npos);
}

}  // namespace
}  // namespace dcs
