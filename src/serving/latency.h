// Streaming latency distributions for the request-level serving layer.
//
// LatencyHistogram is a fixed-bucket log histogram (16 buckets per decade
// over [100 us, 1000 s], plus underflow/overflow) so p50/p95/p99/p999 are
// O(buckets) to read at any point in a run without storing samples. A
// sample's slot is defined by the log10 formula floor(16 log10(s / 100 us));
// slot() reads it from a table of bucket edges instead, and defers to the
// formula itself only within 1e-9 (relative) of an edge, where the
// formula's rounding could tip a sample across it. Counts are integers over
// deterministic inputs, so histograms built from the same sample stream are
// bit-identical regardless of which thread ran the task — the same contract
// as every sweep-runner row. add() takes a run of samples known to share a
// slot in one step (the queue models' fluid runs).
//
// LatencyTracker wraps two histograms: the run-total distribution (the
// figure metric) and a short sliding window whose p99 is the controller's
// SLO-violation signal (core::SloSprintStrategy::observe_latency). Each
// sample's slot is computed once for both.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

namespace dcs::serving {

class LatencyHistogram {
 public:
  /// Bucket geometry: kDecades decades above kMinSeconds, kPerDecade
  /// buckets each; samples below kMinSeconds land in the underflow bucket
  /// and samples at or above the top edge in the overflow bucket.
  static constexpr double kMinSeconds = 1e-4;
  static constexpr std::size_t kDecades = 7;  // up to 1000 s
  static constexpr std::size_t kPerDecade = 16;
  static constexpr std::size_t kBuckets = kDecades * kPerDecade;
  static constexpr double kMaxSeconds = 1e3;
  /// Slots in bucket_counts() order: underflow, the log buckets, overflow.
  static constexpr std::size_t kSlots = kBuckets + 2;

  /// The slot `seconds` lands in: 0 below kMinSeconds (NaN and negative
  /// samples too), 1 + the log bucket, or kSlots - 1 at kMaxSeconds and up.
  [[nodiscard]] static std::size_t slot(double seconds) noexcept;

  /// `n` samples that all land in `slot`, summing to `sum` seconds, the
  /// largest `max`.
  void add(std::size_t slot, std::size_t n, double sum, double max) noexcept;

  /// Quantile in seconds, q in [0, 1]; geometric interpolation inside the
  /// winning bucket. Underflow resolves to kMinSeconds, overflow to
  /// kMaxSeconds. 0 when the histogram is empty.
  [[nodiscard]] double quantile(double q) const noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double sum_seconds() const noexcept { return sum_; }
  [[nodiscard]] double mean_seconds() const noexcept {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  [[nodiscard]] double max_seconds() const noexcept { return max_; }

  void reset() noexcept;

  /// Per-slot (non-cumulative) counts in slot() order: underflow, the log
  /// buckets, overflow; size kSlots. A test seam: the serving tests compare
  /// histograms bucket for bucket through it.
  [[nodiscard]] std::vector<std::size_t> bucket_counts() const;

 private:
  std::array<std::size_t, kSlots> counts_{};
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

class LatencyTracker {
 public:
  /// `window_ticks`: control periods per sliding SLO window (the window
  /// histogram resets every that many end_tick() calls).
  explicit LatencyTracker(std::size_t window_ticks = 10);

  /// Records one request's response time into the run-total and window
  /// histograms.
  void observe(double seconds) noexcept;

  /// LatencyHistogram::add into both histograms.
  void add(std::size_t slot, std::size_t n, double sum, double max) noexcept;

  /// Advances the window clock; call once per control period.
  void end_tick() noexcept;

  /// p99 over the current window (falling back to the last completed
  /// window while the current one is still empty) — the SLO signal.
  [[nodiscard]] double window_p99() const noexcept;

  [[nodiscard]] const LatencyHistogram& total() const noexcept { return total_; }
  [[nodiscard]] double p50() const noexcept { return total_.quantile(0.50); }
  [[nodiscard]] double p99() const noexcept { return total_.quantile(0.99); }
  [[nodiscard]] double p999() const noexcept { return total_.quantile(0.999); }

 private:
  std::size_t window_ticks_;
  std::size_t ticks_in_window_ = 0;
  double last_window_p99_ = 0.0;
  LatencyHistogram total_;
  LatencyHistogram window_;
};

}  // namespace dcs::serving
