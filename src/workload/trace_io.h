// Trace file I/O: load demand traces from CSV so real datasets (the actual
// MS/Yahoo traces, or an operator's own telemetry) can drive every
// experiment in place of the synthetic stand-ins.
//
// Format: two numeric columns "time_s,value" with an optional header line;
// '#' lines are comments. Times must be strictly increasing.
#pragma once

#include <iosfwd>
#include <string>

#include "util/time_series.h"

namespace dcs::workload {

/// Parses a trace from a stream. Throws std::invalid_argument on malformed
/// input (bad numbers, non-increasing time, wrong column count).
[[nodiscard]] TimeSeries read_trace_csv(std::istream& in);

/// Loads a trace from a file in units of `capacity`, the value that maps
/// to 1.0 (the sprint-free peak; the default keeps the file's values).
/// Throws std::invalid_argument when `capacity` is not positive and finite
/// or the file cannot be opened.
[[nodiscard]] TimeSeries load_trace_csv(const std::string& path,
                                        double capacity = 1.0);

/// Writes "time_s,value" rows (with header).
void write_trace_csv(std::ostream& out, const TimeSeries& trace);

/// Saves a trace to a file; throws std::invalid_argument on I/O failure.
void save_trace_csv(const std::string& path, const TimeSeries& trace);

}  // namespace dcs::workload
