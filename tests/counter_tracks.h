// Step expansion of exported counter tracks: the oracle the counter-export
// tests use to show a change-only track loses no sample.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"
#include "util/time_series.h"

namespace dcs::test {

/// The value the 'C' events named `name` (on `lane`) hold at each sample
/// time of `series`: the latest event at or before that time, NaN before
/// the first. Values are read back from the rendered "value" literal, as
/// any reader of the trace would.
inline std::vector<double> step_expand(const std::vector<obs::TraceEvent>& events,
                                       std::string_view name,
                                       const TimeSeries& series,
                                       std::uint32_t lane = 0) {
  std::vector<std::pair<double, double>> track;
  for (const obs::TraceEvent& e : events) {
    if (e.phase != 'C' || e.name != name || e.lane != lane) continue;
    for (const obs::TraceArg& a : e.args) {
      if (a.key == "value") {
        track.emplace_back(e.ts_us, std::strtod(a.value.c_str(), nullptr));
      }
    }
  }
  std::vector<double> out;
  std::size_t next = 0;
  double held = std::numeric_limits<double>::quiet_NaN();
  for (const Sample& s : series.samples()) {
    const double ts_us = s.time.sec() * 1e6;
    while (next < track.size() && track[next].first <= ts_us) {
      held = track[next++].second;
    }
    out.push_back(held);
  }
  EXPECT_EQ(next, track.size()) << name << ": events past the series' end";
  return out;
}

/// What a track must hold at each sample time: every finite sample itself;
/// a non-finite sample holds the finite value before it (NaN before the
/// first finite sample).
inline std::vector<double> held_samples(const TimeSeries& series) {
  std::vector<double> out;
  double held = std::numeric_limits<double>::quiet_NaN();
  for (const Sample& s : series.samples()) {
    if (std::isfinite(s.value)) held = s.value;
    out.push_back(held);
  }
  return out;
}

/// Element-wise bit equality (NaN matches NaN; -0.0 does not match 0.0).
inline ::testing::AssertionResult same_bits(const std::vector<double>& a,
                                            const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "sizes differ: " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const bool both_nan = std::isnan(a[i]) && std::isnan(b[i]);
    if (!both_nan &&
        std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i])) {
      return ::testing::AssertionFailure()
             << "sample " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace dcs::test
