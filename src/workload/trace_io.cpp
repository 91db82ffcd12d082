#include "workload/trace_io.h"

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

#include "util/check.h"
#include "util/csv.h"

namespace dcs::workload {

TimeSeries read_trace_csv(std::istream& in) {
  TimeSeries out;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    // Strip comments and whitespace-only lines.
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;

    const std::size_t comma = line.find(',');
    DCS_REQUIRE(comma != std::string::npos,
                "line " + std::to_string(lineno) + ": expected 'time,value'");
    DCS_REQUIRE(line.find(',', comma + 1) == std::string::npos,
                "line " + std::to_string(lineno) + ": too many columns");
    const std::string time_field = line.substr(0, comma);
    const std::string value_field = line.substr(comma + 1);

    // A leading non-numeric row is the header; anywhere else it is an error.
    const auto looks_numeric = [](const std::string& s) {
      const std::size_t pos = s.find_first_not_of(" \t");
      if (pos == std::string::npos) return false;
      const char c = s[pos];
      return (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.';
    };
    if (!looks_numeric(time_field)) {
      DCS_REQUIRE(out.empty(), "trace CSV line " + std::to_string(lineno) +
                                   ": cannot parse '" + line + "'");
      continue;
    }
    const auto parse = [&](const std::string& field) {
      std::size_t consumed = 0;
      double v = 0.0;
      try {
        v = std::stod(field, &consumed);
      } catch (const std::exception&) {
        throw std::invalid_argument("trace CSV line " + std::to_string(lineno) +
                                    ": cannot parse '" + field + "'");
      }
      DCS_REQUIRE(field.find_first_not_of(" \t\r", consumed) ==
                      std::string::npos,
                  "trace CSV line " + std::to_string(lineno) +
                      ": trailing characters in '" + field + "'");
      return v;
    };
    const double t = parse(time_field);
    const double v = parse(value_field);
    out.push_back(Duration::seconds(t), v);
  }
  DCS_REQUIRE(!out.empty(), "trace CSV contains no samples");
  return out;
}

TimeSeries load_trace_csv(const std::string& path, double capacity) {
  DCS_REQUIRE(capacity > 0.0 && std::isfinite(capacity),
              "trace capacity must be positive and finite");
  std::ifstream in(path);
  DCS_REQUIRE(in.good(), "cannot open trace file: " + path);
  return read_trace_csv(in).scaled(1.0 / capacity);
}

void write_trace_csv(std::ostream& out, const TimeSeries& trace) {
  CsvWriter csv(out);
  csv.write_row({"time_s", "value"});
  for (const Sample& s : trace.samples()) {
    csv.write_numeric_row({s.time.sec(), s.value});
  }
}

void save_trace_csv(const std::string& path, const TimeSeries& trace) {
  std::ofstream out(path);
  DCS_REQUIRE(out.good(), "cannot write trace file: " + path);
  write_trace_csv(out, trace);
  out.flush();
  DCS_REQUIRE(out.good(), "I/O error writing trace file: " + path);
}

}  // namespace dcs::workload
