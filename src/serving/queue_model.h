// Per-server analytic queueing models behind the QueueModel interface.
//
// Each control period a server receives `arrivals` placed requests and a
// service rate `mu_rps` derived from the *currently active core set*
// (capacity degree x peak rate / servers) — so sprint, derate and shed
// actions from the controller's degradation ladder immediately reshape the
// latency distribution. Two regimes:
//
//  - Stationary (no backlog, utilization below `rho_max`): each request
//    samples a response time from the model's stationary distribution.
//    M/G/1 uses the Pollaczek-Khinchine mean
//        W = 1/mu + lambda (1 + cv^2) / (2 mu^2 (1 - rho))
//    with an exponential response-time shape (exact for M/M/1, i.e.
//    cv^2 = 1). Processor sharing samples a job size S ~ Exp(mu) and
//    stretches it to T = S / (1 - rho) — PS is insensitive to the size
//    distribution beyond its mean, so its mean response matches M/M/1.
//    The mean (M/G/1) or stretch (PS) is worked out once per step; each
//    request then costs one exponential draw (a ziggurat step, one 64-bit
//    draw and no log for about 98% of requests) and one histogram slot.
//  - Fluid overload (backlog pending or rho >= rho_max): deterministic
//    FIFO fluid dynamics — request i waits for the backlog plus the i
//    requests ahead of it at rate mu, and the backlog integrates
//    max(B + arrivals - mu dt, 0). Responses are monotone decreasing in
//    mu, which is what makes the p99-vs-sprint-budget curves monotone.
//    The run (B + i + 1) / mu increases with i, so step() adds it to the
//    histograms a bucket at a time: bisection on that exact expression
//    finds where each bucket's share ends, and the share enters with its
//    count, its largest value and a closed-form sum. A run costs
//    O(log arrivals) per bucket it spans.
//
// Sampling consumes a caller-provided Rng (the serving layer forks one per
// (tick, server)), so a server's latency stream is a pure function of its
// seed and inputs — bit-identical for any thread count.
#pragma once

#include <memory>
#include <string_view>

#include "serving/latency.h"
#include "util/rng.h"
#include "util/units.h"

namespace dcs::serving {

struct QueueModelParams {
  /// Squared coefficient of variation of service times (M/G/1 only;
  /// 1 = exponential/M/M/1, 0 = deterministic).
  double cv2 = 1.0;
  /// Utilization above which the stationary formulas give way to the fluid
  /// overload regime.
  double rho_max = 0.95;
};

/// Closed-form M/G/1 mean response time (Pollaczek-Khinchine). Requires
/// lambda < mu.
[[nodiscard]] double mg1_mean_response_s(double lambda_rps, double mu_rps,
                                         double cv2) noexcept;

class QueueModel {
 public:
  virtual ~QueueModel() = default;

  /// Serves `arrivals` requests offered this period at service rate
  /// `mu_rps`, recording one response time per request into `latencies`.
  /// Must be called every period (even with zero arrivals) so the backlog
  /// drains.
  virtual void step(std::size_t arrivals, double mu_rps, Duration dt,
                    Rng& rng, LatencyTracker& latencies) = 0;

  /// Requests queued but not yet served (fluid regime), in requests.
  [[nodiscard]] virtual double backlog() const noexcept = 0;

  virtual void reset() = 0;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
};

/// Shared two-regime skeleton; subclasses provide the stationary response
/// draws.
class AnalyticQueue : public QueueModel {
 public:
  explicit AnalyticQueue(QueueModelParams params) : params_(params) {}

  void step(std::size_t arrivals, double mu_rps, Duration dt, Rng& rng,
            LatencyTracker& latencies) final;
  [[nodiscard]] double backlog() const noexcept final { return backlog_; }
  void reset() final { backlog_ = 0.0; }

 protected:
  /// Records `arrivals` response times drawn under stationary load
  /// (lambda < mu).
  virtual void observe_stationary(std::size_t arrivals, double lambda_rps,
                                  double mu_rps, Rng& rng,
                                  LatencyTracker& latencies) const = 0;
  [[nodiscard]] const QueueModelParams& params() const noexcept {
    return params_;
  }

 private:
  QueueModelParams params_;
  double backlog_ = 0.0;
};

/// M/G/1 FIFO (Pollaczek-Khinchine mean, exponential shape).
class Mg1Queue final : public AnalyticQueue {
 public:
  explicit Mg1Queue(QueueModelParams params = {}) : AnalyticQueue(params) {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return "mg1";
  }

 protected:
  void observe_stationary(std::size_t arrivals, double lambda_rps,
                          double mu_rps, Rng& rng,
                          LatencyTracker& latencies) const override;
};

/// Egalitarian processor sharing over the active core set.
class ProcessorSharingQueue final : public AnalyticQueue {
 public:
  explicit ProcessorSharingQueue(QueueModelParams params = {})
      : AnalyticQueue(params) {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return "ps";
  }

 protected:
  void observe_stationary(std::size_t arrivals, double lambda_rps,
                          double mu_rps, Rng& rng,
                          LatencyTracker& latencies) const override;
};

/// Factory over the bench `queue_model=` knob: "mg1" | "ps". Aborts on an
/// unknown name.
[[nodiscard]] std::unique_ptr<QueueModel> make_queue_model(
    std::string_view name, QueueModelParams params = {});

}  // namespace dcs::serving
