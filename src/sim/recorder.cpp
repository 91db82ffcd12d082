#include "sim/recorder.h"

#include <algorithm>

#include "util/check.h"

namespace dcs::sim {

void Recorder::start(std::vector<std::string> channels, std::size_t rows) {
  std::vector<std::string> sorted = channels;
  std::sort(sorted.begin(), sorted.end());
  DCS_REQUIRE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
              "recorder channel names must be unique");
  names_ = std::move(channels);
  times_.clear();
  times_.reserve(rows);
  columns_.assign(names_.size(), {});
  for (std::vector<double>& column : columns_) column.reserve(rows);
}

void Recorder::append(Duration time, std::span<const double> row) {
  DCS_REQUIRE(row.size() == columns_.size(),
              "recorder row width must match the channel count");
  DCS_REQUIRE(times_.empty() || times_.back() < time,
              "recorder times must strictly increase");
  times_.push_back(time);
  for (std::size_t c = 0; c < row.size(); ++c) columns_[c].push_back(row[c]);
}

std::size_t Recorder::column_of(std::string_view channel) const {
  return static_cast<std::size_t>(
      std::find(names_.begin(), names_.end(), channel) - names_.begin());
}

bool Recorder::has(std::string_view channel) const {
  return column_of(channel) < names_.size();
}

TimeSeries Recorder::series(std::string_view channel) const {
  const std::size_t c = column_of(channel);
  DCS_REQUIRE(c < names_.size(),
              "unknown recorder channel: " + std::string{channel});
  std::vector<Sample> samples(times_.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i] = Sample{times_[i], columns_[c][i]};
  }
  return TimeSeries{std::move(samples)};
}

std::vector<std::string> Recorder::channels() const {
  std::vector<std::string> names = names_;
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace dcs::sim
