// The analytic queue of one server, served one control period at a time.
//
// Each control period a server receives `arrivals` placed requests and a
// service rate `mu_rps` derived from the *currently active core set*
// (capacity degree x peak rate / servers) — so sprint, derate and shed
// actions from the controller's degradation ladder immediately reshape the
// latency distribution. Two regimes:
//
//  - Stationary (no backlog, utilization below 0.95): each request samples
//    an exponential response time whose mean is the M/M/1 one, the
//    Pollaczek-Khinchine mean
//        W = 1/mu + lambda (1 + cv^2) / (2 mu^2 (1 - rho))
//    at cv^2 = 1 (exponential service). The mean is worked out once per
//    period; each request then costs one exponential draw (a ziggurat step,
//    one 64-bit draw and no log for about 98% of requests) and one
//    histogram slot.
//  - Fluid overload (backlog pending or rho >= 0.95): deterministic FIFO
//    fluid dynamics — request i waits for the backlog plus the i requests
//    ahead of it at rate mu, and the backlog integrates
//    max(B + arrivals - mu dt, 0). Responses are monotone decreasing in
//    mu, which is what makes the p99-vs-sprint-budget curves monotone.
//    The run (B + i + 1) / mu increases with i, so serve_period() adds it
//    to the histograms a bucket at a time: bisection on that exact
//    expression finds where each bucket's share ends, and the share enters
//    with its count, its largest value and a closed-form sum. A run costs
//    O(log arrivals) per bucket it spans.
//
// The backlog is the queue's only state, so the caller keeps it and hands
// it in each period. Sampling consumes a caller-provided Rng (the serving
// layer forks one per (tick, server)), so a server's latency stream is a
// pure function of its seed and inputs — bit-identical for any thread
// count.
#pragma once

#include <cstddef>

#include "serving/latency.h"
#include "util/rng.h"
#include "util/units.h"

namespace dcs::serving {

/// Closed-form M/G/1 mean response time (Pollaczek-Khinchine), with `cv2`
/// the squared coefficient of variation of service times. Requires
/// lambda < mu.
[[nodiscard]] double mg1_mean_response_s(double lambda_rps, double mu_rps,
                                         double cv2) noexcept;

/// Serves one server for one period: `arrivals` requests offered at
/// service rate `mu_rps`, one response time each into `latencies`.
/// `backlog` is the requests the server still holds from earlier periods
/// (0 to start); returns the backlog after this one. Must be called every
/// period (even with zero arrivals) so the backlog drains.
[[nodiscard]] double serve_period(double backlog, std::size_t arrivals,
                                  double mu_rps, Duration dt, Rng& rng,
                                  LatencyTracker& latencies);

}  // namespace dcs::serving
