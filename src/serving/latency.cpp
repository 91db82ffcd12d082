#include "serving/latency.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

namespace dcs::serving {
namespace {

using H = LatencyHistogram;

/// log10 spacing of one bucket.
constexpr double kDecadeFraction = 1.0 / static_cast<double>(H::kPerDecade);

/// The defining slot formula for a sample in [kMinSeconds, kMaxSeconds).
std::size_t formula_bucket(double seconds) noexcept {
  const double pos = std::log10(seconds / H::kMinSeconds) *
                     static_cast<double>(H::kPerDecade);
  const auto index = static_cast<std::size_t>(std::max(pos, 0.0));
  return std::min(index, H::kBuckets - 1);
}

double bucket_lower_edge(std::size_t index) noexcept {
  return H::kMinSeconds *
         std::pow(10.0, static_cast<double>(index) * kDecadeFraction);
}

/// Relative distance from a bucket edge inside which slot() defers to the
/// formula. The formula's rounding moves a sample by a few ulps (~1e-15),
/// so outside this band the table and the formula cannot disagree.
constexpr double kEdgeGuard = 1e-9;

/// A double's binary cell: its exponent and 4 leading mantissa bits. A cell
/// spans at most log10(17/16) = 0.026 decades, under half a bucket, so it
/// meets at most two buckets.
constexpr int kCellShift = 52 - 4;
constexpr std::uint64_t cell_of(double seconds) noexcept {
  return std::bit_cast<std::uint64_t>(seconds) >> kCellShift;
}
constexpr std::uint64_t kFirstCell = cell_of(H::kMinSeconds);
constexpr std::size_t kCells = cell_of(H::kMaxSeconds) - kFirstCell + 1;

struct SlotTable {
  /// Bucket k holds [edge[k], edge[k + 1]); edge[kBuckets] = kMaxSeconds.
  std::array<double, H::kBuckets + 1> edge{};
  /// Samples in [safe_lo[k], safe_hi[k]] are kEdgeGuard clear of bucket
  /// k's edges.
  std::array<double, H::kBuckets> safe_lo{};
  std::array<double, H::kBuckets> safe_hi{};
  /// The lowest bucket each cell of [kMinSeconds, kMaxSeconds) meets.
  std::array<std::uint8_t, kCells> first{};
};

SlotTable make_slot_table() {
  SlotTable t;
  for (std::size_t k = 0; k < H::kBuckets; ++k) {
    t.edge[k] = bucket_lower_edge(k);
  }
  t.edge[H::kBuckets] = H::kMaxSeconds;
  for (std::size_t k = 0; k < H::kBuckets; ++k) {
    t.safe_lo[k] = t.edge[k] * (1.0 + kEdgeGuard);
    t.safe_hi[k] = t.edge[k + 1] * (1.0 - kEdgeGuard);
  }
  for (std::size_t c = 0; c < kCells; ++c) {
    const double lowest = std::max(
        std::bit_cast<double>((kFirstCell + c) << kCellShift), H::kMinSeconds);
    const auto above = std::upper_bound(t.edge.begin(), t.edge.end(), lowest);
    t.first[c] = static_cast<std::uint8_t>(above - t.edge.begin() - 1);
  }
  return t;
}

const SlotTable& slot_table() {
  static const SlotTable table = make_slot_table();
  return table;
}

}  // namespace

std::size_t LatencyHistogram::slot(double seconds) noexcept {
  if (!(seconds >= kMinSeconds)) return 0;
  if (seconds >= kMaxSeconds) return kSlots - 1;
  const SlotTable& t = slot_table();
  std::size_t k = t.first[cell_of(seconds) - kFirstCell];
  while (seconds >= t.edge[k + 1]) ++k;  // a step at most
  if (seconds < t.safe_lo[k] || seconds > t.safe_hi[k]) {
    k = formula_bucket(seconds);
  }
  return 1 + k;
}

void LatencyHistogram::add(std::size_t slot, std::size_t n, double sum,
                           double max) noexcept {
  counts_[slot] += n;
  count_ += n;
  sum_ += sum;
  max_ = std::max(max_, max);
}

double LatencyHistogram::quantile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  double cumulative = static_cast<double>(counts_[0]);
  if (target <= cumulative) return kMinSeconds;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::size_t in_bucket = counts_[1 + i];
    if (in_bucket == 0) continue;
    const double next = cumulative + static_cast<double>(in_bucket);
    if (target <= next) {
      // Geometric interpolation between the bucket edges, matching the log
      // spacing of the buckets themselves.
      const double fraction =
          (target - cumulative) / static_cast<double>(in_bucket);
      const double lo = bucket_lower_edge(i);
      return lo * std::pow(10.0, kDecadeFraction * fraction);
    }
    cumulative = next;
  }
  return kMaxSeconds;
}

void LatencyHistogram::reset() noexcept { *this = LatencyHistogram{}; }

std::vector<std::size_t> LatencyHistogram::bucket_counts() const {
  return {counts_.begin(), counts_.end()};
}

void LatencyTracker::observe(double seconds) noexcept {
  if (!(seconds >= 0.0)) seconds = 0.0;  // NaN / negative guard
  add(LatencyHistogram::slot(seconds), 1, seconds, seconds);
}

void LatencyTracker::add(std::size_t slot, std::size_t n, double sum,
                         double max) noexcept {
  total_.add(slot, n, sum, max);
  window_.add(slot, n, sum, max);
}

void LatencyTracker::end_tick() noexcept {
  if (++ticks_in_window_ < kWindowTicks) return;
  if (window_.count() > 0) last_window_p99_ = window_.quantile(0.99);
  window_.reset();
  ticks_in_window_ = 0;
}

double LatencyTracker::window_p99() const noexcept {
  return window_.count() > 0 ? window_.quantile(0.99) : last_window_p99_;
}

}  // namespace dcs::serving
