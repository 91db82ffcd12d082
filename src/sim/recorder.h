// Named per-tick channels captured during a run, stored as columns: one
// shared time column plus one value column per channel. Each channel reads
// back as a TimeSeries that benches print / export and tests assert on.
//
// The channel set is fixed when recording starts, and every column is
// reserved for the run's horizon, so appending a tick is one store per
// channel and allocates nothing.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/time_series.h"
#include "util/units.h"

namespace dcs::sim {

class Recorder {
 public:
  /// Starts recording `channels` (unique names; rows are appended in this
  /// order), dropping anything recorded before, and reserves room for
  /// `rows` rows.
  void start(std::vector<std::string> channels, std::size_t rows);

  /// Appends one row: a value per channel, in start() order. Times must
  /// strictly increase.
  void append(Duration time, std::span<const double> row);

  [[nodiscard]] bool has(std::string_view channel) const;
  /// One channel's samples. Throws std::invalid_argument for unknown
  /// channels.
  [[nodiscard]] TimeSeries series(std::string_view channel) const;
  /// Channel names, sorted.
  [[nodiscard]] std::vector<std::string> channels() const;

 private:
  [[nodiscard]] std::size_t column_of(std::string_view channel) const;

  std::vector<std::string> names_;
  std::vector<Duration> times_;
  std::vector<std::vector<double>> columns_;  // one per name, same order
};

}  // namespace dcs::sim
