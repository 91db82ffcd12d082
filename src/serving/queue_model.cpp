#include "serving/queue_model.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace dcs::serving {

double mg1_mean_response_s(double lambda_rps, double mu_rps,
                           double cv2) noexcept {
  const double rho = lambda_rps / mu_rps;
  return 1.0 / mu_rps +
         lambda_rps * (1.0 + cv2) / (2.0 * mu_rps * mu_rps * (1.0 - rho));
}

namespace {

/// Records the fluid FIFO run (backlog + i + 1) / mu, i in [0, n), one
/// bucket at a time. The run is non-decreasing in i and so is its slot, so
/// each bucket's share is an index range, found by bisection on the exact
/// per-request value; its sum is the closed-form sum of the range.
void observe_fluid_run(double backlog, std::size_t n, double mu,
                       LatencyTracker& latencies) {
  const auto value = [&](std::size_t i) {
    return (backlog + static_cast<double>(i) + 1.0) / mu;
  };
  const auto slot = [&](std::size_t i) {
    return LatencyHistogram::slot(value(i));
  };
  if (n > 0 && std::isnan(value(0))) {
    // A NaN rate or backlog makes every value NaN, which observe() reads
    // as 0 s.
    latencies.add(0, n, 0.0, 0.0);
    return;
  }
  for (std::size_t begin = 0; begin < n;) {
    const std::size_t bucket = slot(begin);
    // The share ends at the first index in a higher slot: in [lo, hi].
    std::size_t lo = begin + 1;
    std::size_t hi = n;
    if (slot(n - 1) != bucket) {
      while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (slot(mid) == bucket) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
    }
    const std::size_t end = hi;
    // n values of mean (backlog + 1 + mean i) / mu.
    const auto count = static_cast<double>(end - begin);
    const double mean_i = 0.5 * static_cast<double>(begin + end - 1);
    latencies.add(bucket, end - begin,
                  count * (backlog + 1.0 + mean_i) / mu, value(end - 1));
    begin = end;
  }
}

}  // namespace

void AnalyticQueue::step(std::size_t arrivals, double mu_rps, Duration dt,
                         Rng& rng, LatencyTracker& latencies) {
  // A fully shed / powered-off server (mu = 0) cannot serve: every request
  // pends and its modeled response saturates the histogram's top bucket.
  if (mu_rps <= 0.0) {
    backlog_ += static_cast<double>(arrivals);
    if (arrivals > 0) {
      constexpr double kTop = LatencyHistogram::kMaxSeconds;
      latencies.add(LatencyHistogram::slot(kTop), arrivals,
                    static_cast<double>(arrivals) * kTop, kTop);
    }
    return;
  }
  const double lambda = static_cast<double>(arrivals) / dt.sec();
  const double rho = lambda / mu_rps;
  if (backlog_ <= 0.0 && rho < params_.rho_max) {
    observe_stationary(arrivals, lambda, mu_rps, rng, latencies);
    return;
  }
  // Fluid FIFO overload: request i queues behind the backlog plus the i
  // requests ahead of it this period, all draining at mu.
  observe_fluid_run(backlog_, arrivals, mu_rps, latencies);
  backlog_ = std::max(
      backlog_ + static_cast<double>(arrivals) - mu_rps * dt.sec(), 0.0);
}

void Mg1Queue::observe_stationary(std::size_t arrivals, double lambda_rps,
                                  double mu_rps, Rng& rng,
                                  LatencyTracker& latencies) const {
  const double mean = mg1_mean_response_s(lambda_rps, mu_rps, params().cv2);
  const double rate = 1.0 / mean;
  for (std::size_t i = 0; i < arrivals; ++i) {
    latencies.observe(rng.exponential(rate));
  }
}

void ProcessorSharingQueue::observe_stationary(
    std::size_t arrivals, double lambda_rps, double mu_rps, Rng& rng,
    LatencyTracker& latencies) const {
  const double rho = lambda_rps / mu_rps;
  const double stretch = 1.0 - rho;
  for (std::size_t i = 0; i < arrivals; ++i) {
    latencies.observe(rng.exponential(mu_rps) / stretch);
  }
}

std::unique_ptr<QueueModel> make_queue_model(std::string_view name,
                                             QueueModelParams params) {
  DCS_REQUIRE(params.cv2 >= 0.0, "cv2 must be non-negative");
  DCS_REQUIRE(params.rho_max > 0.0 && params.rho_max < 1.0,
              "rho_max must lie in (0, 1)");
  if (name == "mg1") return std::make_unique<Mg1Queue>(params);
  if (name == "ps") return std::make_unique<ProcessorSharingQueue>(params);
  DCS_REQUIRE(false, "unknown queue model (want mg1 or ps)");
  return nullptr;
}

}  // namespace dcs::serving
