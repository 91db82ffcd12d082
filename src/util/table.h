// ASCII table printer used by the benchmark harness to render the paper's
// figure series as aligned rows on stdout.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace dcs {

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void add_row(std::vector<std::string> row);
  /// Mixed row: first column text, remaining numeric.
  void add_row(const std::string& label, const std::vector<double>& values,
               int precision = 3);

  void print(std::ostream& out) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

[[nodiscard]] std::string format_double(double v, int precision = 3);

}  // namespace dcs
