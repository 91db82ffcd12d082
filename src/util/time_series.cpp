#include "util/time_series.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace dcs {

TimeSeries::TimeSeries(std::vector<Sample> samples) : samples_(std::move(samples)) {
  for (std::size_t i = 1; i < samples_.size(); ++i) {
    DCS_REQUIRE(samples_[i - 1].time < samples_[i].time,
                "sample times must be strictly increasing");
  }
}

void TimeSeries::push_back(Duration time, double value) {
  DCS_REQUIRE(samples_.empty() || samples_.back().time < time,
              "sample times must be strictly increasing");
  samples_.push_back(Sample{time, value});
}

Duration TimeSeries::start_time() const {
  DCS_REQUIRE(!samples_.empty(), "empty series has no start time");
  return samples_.front().time;
}

Duration TimeSeries::end_time() const {
  DCS_REQUIRE(!samples_.empty(), "empty series has no end time");
  return samples_.back().time;
}

double TimeSeries::at(Duration t, Interpolation mode) const {
  DCS_REQUIRE(!samples_.empty(), "cannot sample an empty series");
  if (t <= samples_.front().time) return samples_.front().value;
  if (t >= samples_.back().time) return samples_.back().value;
  // First sample strictly after t.
  const auto it = std::upper_bound(
      samples_.begin(), samples_.end(), t,
      [](Duration lhs, const Sample& s) { return lhs < s.time; });
  const Sample& hi = *it;
  const Sample& lo = *(it - 1);
  if (mode == Interpolation::kStep) return lo.value;
  const double frac = (t - lo.time) / (hi.time - lo.time);
  return lo.value + frac * (hi.value - lo.value);
}

double TimeSeries::at(Duration t, Cursor& cursor, Interpolation mode) const {
  DCS_REQUIRE(!samples_.empty(), "cannot sample an empty series");
  if (t <= samples_.front().time) return samples_.front().value;
  if (t >= samples_.back().time) return samples_.back().value;
  // Restore the invariant samples_[i].time <= t < samples_[i + 1].time by
  // walking from the cursor; both loops terminate because t lies strictly
  // between the first and last sample times.
  std::size_t i = std::min(cursor.hint_, samples_.size() - 2);
  while (samples_[i].time > t) --i;
  while (samples_[i + 1].time <= t) ++i;
  cursor.hint_ = i;
  const Sample& lo = samples_[i];
  if (mode == Interpolation::kStep) return lo.value;
  const Sample& hi = samples_[i + 1];
  const double frac = (t - lo.time) / (hi.time - lo.time);
  return lo.value + frac * (hi.value - lo.value);
}

TimeSeries TimeSeries::slice(Duration from, Duration to, Interpolation mode) const {
  DCS_REQUIRE(from < to, "slice requires from < to");
  TimeSeries out;
  out.push_back(Duration::zero(), at(from, mode));
  for (const Sample& s : samples_) {
    if (s.time > from && s.time < to) out.push_back(s.time - from, s.value);
  }
  out.push_back(to - from, at(to, mode));
  return out;
}

TimeSeries TimeSeries::map(const std::function<double(double)>& fn) const {
  TimeSeries out;
  for (const Sample& s : samples_) out.push_back(s.time, fn(s.value));
  return out;
}

TimeSeries TimeSeries::scaled(double k) const {
  return map([k](double v) { return v * k; });
}

double TimeSeries::min_value() const {
  DCS_REQUIRE(!samples_.empty(), "empty series has no min");
  double m = samples_.front().value;
  for (const Sample& s : samples_) m = std::min(m, s.value);
  return m;
}

double TimeSeries::max_value() const {
  DCS_REQUIRE(!samples_.empty(), "empty series has no max");
  double m = samples_.front().value;
  for (const Sample& s : samples_) m = std::max(m, s.value);
  return m;
}

double TimeSeries::time_weighted_mean() const {
  const Duration total = span();
  if (total <= Duration::zero()) return samples_.empty() ? 0.0 : samples_.front().value;
  return integral() / total.sec();
}

double TimeSeries::integral() const {
  DCS_REQUIRE(!samples_.empty(), "empty series has no integral");
  double sum = 0.0;
  for (std::size_t i = 0; i + 1 < samples_.size(); ++i) {
    sum += samples_[i].value * (samples_[i + 1].time - samples_[i].time).sec();
  }
  return sum;
}

}  // namespace dcs
