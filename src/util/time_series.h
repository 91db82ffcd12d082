// A time-indexed sequence of samples with the transforms the experiment
// harness needs: interpolation, slicing, scaling and summary statistics.
// Used both for workload traces (demand over time) and for simulation
// outputs (power / performance over time).
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "util/units.h"

namespace dcs {

/// One (time, value) sample. The meaning of `value` is up to the owner
/// (normalized demand, watts, a performance factor, ...).
struct Sample {
  Duration time;
  double value = 0.0;

  friend bool operator==(const Sample&, const Sample&) = default;
};

/// How TimeSeries::at() fills in values between samples.
enum class Interpolation {
  kStep,    ///< value holds until the next sample (piecewise constant)
  kLinear,  ///< straight line between neighbouring samples
};

class TimeSeries {
 public:
  /// Amortized-O(1) sampling position for callers that walk a series with
  /// (nearly) monotone query times, e.g. the per-tick run loop. The cursor
  /// is just a hint — any position yields correct results — and is external
  /// to the series so one series can be shared across threads, each with its
  /// own cursor.
  class Cursor {
   public:
    Cursor() = default;

   private:
    friend class TimeSeries;
    std::size_t hint_ = 0;
  };

  TimeSeries() = default;
  explicit TimeSeries(std::vector<Sample> samples);

  /// Appends a sample; time must be strictly increasing.
  void push_back(Duration time, double value);

  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }
  [[nodiscard]] const Sample& operator[](std::size_t i) const { return samples_[i]; }
  [[nodiscard]] const std::vector<Sample>& samples() const noexcept { return samples_; }

  [[nodiscard]] Duration start_time() const;
  [[nodiscard]] Duration end_time() const;
  [[nodiscard]] Duration span() const { return end_time() - start_time(); }

  /// Value at `t`. Before the first sample returns the first value; after
  /// the last returns the last value.
  [[nodiscard]] double at(Duration t, Interpolation mode = Interpolation::kStep) const;

  /// Same result as at(), locating the bracketing samples from `cursor`
  /// instead of a binary search (amortized O(1) for monotone query times).
  [[nodiscard]] double at(Duration t, Cursor& cursor,
                          Interpolation mode = Interpolation::kStep) const;

  /// Sub-series covering [from, to] (endpoints sampled via `mode` so the
  /// slice is well-defined even when they fall between samples), shifted so
  /// the slice starts at t = 0.
  [[nodiscard]] TimeSeries slice(Duration from, Duration to,
                                 Interpolation mode = Interpolation::kStep) const;

  /// Applies `fn` to each value, keeping timestamps.
  [[nodiscard]] TimeSeries map(const std::function<double(double)>& fn) const;

  /// Multiplies every value by `k`.
  [[nodiscard]] TimeSeries scaled(double k) const;

  [[nodiscard]] double min_value() const;
  [[nodiscard]] double max_value() const;

  /// Time-weighted mean over the series span (step interpretation).
  [[nodiscard]] double time_weighted_mean() const;

  /// Time-weighted integral of value * dt (step interpretation). For a
  /// series of watts this yields joules.
  [[nodiscard]] double integral() const;

 private:
  std::vector<Sample> samples_;
};

}  // namespace dcs
