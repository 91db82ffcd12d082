#include "util/table.h"

#include <algorithm>
#include <cstdio>

#include "util/check.h"

namespace dcs {

std::string format_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  DCS_REQUIRE(!headers_.empty(), "table needs at least one column");
}

void TablePrinter::add_row(std::vector<std::string> row) {
  DCS_REQUIRE(row.size() == headers_.size(), "row width must match headers");
  rows_.push_back(std::move(row));
}

void TablePrinter::add_row(const std::string& label,
                           const std::vector<double>& values, int precision) {
  std::vector<std::string> row;
  row.reserve(values.size() + 1);
  row.push_back(label);
  for (double v : values) row.push_back(format_double(v, precision));
  add_row(std::move(row));
}

void TablePrinter::print(std::ostream& out) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << (c ? "  " : "");
      out << row[c];
      for (std::size_t pad = row[c].size(); pad < widths[c]; ++pad) out << ' ';
    }
    out << '\n';
  };
  print_row(headers_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  out << std::string(total >= 2 ? total - 2 : total, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
}

}  // namespace dcs
