// Statistics, digests and spans of the benchmark (perfbench.h).
#include <algorithm>
#include <cstring>
#include <utility>

#ifdef __linux__
#include <sched.h>
#endif

#include "perfbench.h"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

double percentile(std::vector<double> values, int percent) {
  if (values.empty()) return 0.0;
  const std::size_t n = values.size();
  const std::size_t rank = std::clamp<std::size_t>(
      (static_cast<std::size_t>(percent) * n + 99) / 100, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double paper_gap(const std::vector<double>& factors) {
  if (factors.empty()) return 0.0;
  double sum = 0.0;
  for (const double f : factors) {
    sum += std::max({kFig9BandLow - f, f - kFig9BandHigh, 0.0});
  }
  return sum / static_cast<double>(factors.size());
}

void Digest::add_bytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 1099511628211ULL;
  }
}

void Digest::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  add_bytes(&bits, sizeof bits);
}

void Digest::add(std::uint64_t value) { add_bytes(&value, sizeof value); }

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + (stream + 1) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double now_us() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch)
      .count();
}

void next_cpu() {
#ifdef __linux__
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  const int current = sched_getcpu();
  int first = -1;
  int next = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (first < 0) first = cpu;
    if (cpu > current) {
      next = cpu;
      break;
    }
  }
  const int target = next >= 0 ? next : first;
  if (target < 0 || target == current) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(target, &one);
  // Pinning to one CPU migrates the thread there before the call returns;
  // restoring the old mask then leaves it there, unpinned.
  if (sched_setaffinity(0, sizeof one, &one) == 0) {
    (void)sched_setaffinity(0, sizeof allowed, &allowed);
  }
#endif
}

int SpanLog::open(std::string_view name, int parent) {
  if (!enabled_) return -1;
  const double start = now_us();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{std::string(name), start, start, parent});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::close(int id) {
  if (id < 0) return;
  const double end = now_us();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_us = end;
}

void SpanLog::add(std::string_view name, double start_us, double end_us,
                  int parent) {
  if (!enabled_) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{std::string(name), start_us, end_us, parent});
}

std::vector<Span> SpanLog::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<double> span_durations(const std::vector<Span>& spans,
                                   std::string_view name) {
  std::vector<double> out;
  for (const Span& span : spans) {
    if (span.name == name) out.push_back(span.duration_us());
  }
  return out;
}

double self_time_us(const std::vector<Span>& spans, int id) {
  const Span& self = spans.at(static_cast<std::size_t>(id));
  std::vector<std::pair<double, double>> children;
  for (const Span& span : spans) {
    if (span.parent == id) children.emplace_back(span.start_us, span.end_us);
  }
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double reach = self.start_us;
  for (const auto& [start, end] : children) {
    const double from = std::max(start, reach);
    const double to = std::min(end, self.end_us);
    if (to > from) covered += to - from;
    reach = std::max(reach, to);
  }
  return self.duration_us() - covered;
}

}  // namespace perfbench
