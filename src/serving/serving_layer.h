// The request-level serving layer: a sim::Component that sits between the
// workload traces and the core controller.
//
// Each control period it (1) draws discrete Poisson arrivals from the
// demand trace via RequestSource, (2) applies request admission control —
// arrivals beyond admit_factor x current capacity are dropped, the
// request-level face of workload/admission — (3) splits the admitted
// requests over the servers through the PlacementPolicy, in one call per
// period, (4) advances every server's QueueModel at the service rate
// implied by the *currently active core set* (capacity degree published by
// the controller through set_capacity_degree), and (5) folds the response
// times into a LatencyTracker whose sliding-window p99 feeds the SLO
// callback (wired to core::SloSprintStrategy::observe_latency by the
// bench/test layer — core never links against serving). The Poisson
// arrival draw costs the same at any rate, placement O(servers log
// servers) a period and a fluid-overload run O(log arrivals) per latency
// bucket; only the stationary response draws grow with the request rate,
// at one ziggurat exponential per request. Scratch is sized at
// construction, so tick() allocates nothing (bar the decision log's own
// storage, and the recorder's columns, reserved once on the first recorded
// tick).
//
// Determinism: arrivals are a pure function of (seed, tick); response
// sampling uses Rng forks keyed by (tick, server); placement is
// deterministic. Runs with the same parameters produce bit-identical
// latency histograms regardless of thread count or co-scheduled work.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/decision.h"
#include "serving/error_budget.h"
#include "serving/latency.h"
#include "serving/placement.h"
#include "serving/queue_model.h"
#include "serving/request_source.h"
#include "sim/component.h"
#include "sim/recorder.h"
#include "util/rng.h"
#include "util/time_series.h"
#include "util/units.h"

namespace dcs::serving {

struct ServingParams {
  /// Modeled servers (queueing stations). The fleet's physical scale
  /// invariance (core/datacenter.h) means this is a modeling knob, not a
  /// hardware count.
  std::size_t servers = 8;
  /// Request rate at demand 1.0; positive and finite.
  double peak_rps = 400.0;
  std::uint64_t seed = 0x5e91ce5eedULL;
  /// Queue model name: "mg1" | "ps" (serving/queue_model.h).
  std::string queue_model = "mg1";
  QueueModelParams queue;
  /// Placement policy name: "round_robin" | "jsq".
  std::string placement = "round_robin";
  /// Admission cap as a multiple of current capacity: arrivals beyond
  /// admit_factor x degree x peak_rps x dt are dropped.
  double admit_factor = 2.0;
  /// Control periods per sliding SLO window (the p99 signal's horizon).
  std::size_t window_ticks = 10;
  /// Demand trace driving the arrivals; must outlive the layer. Same
  /// normalized trace the controller runs.
  const TimeSeries* demand = nullptr;
};

/// Per-tick summary handed to the SLO callback.
struct ServingStats {
  std::size_t offered = 0;   ///< arrivals this period
  std::size_t admitted = 0;  ///< after admission control
  std::size_t dropped = 0;   ///< offered - admitted
  double p99_s = 0.0;        ///< sliding-window p99 (seconds)
  double backlog = 0.0;      ///< total queued requests across servers
};

class ServingLayer final : public sim::Component {
 public:
  explicit ServingLayer(ServingParams params);

  /// Publishes the controller's realized capacity multiplier for the
  /// current period (StepResult::degree); service rates scale with it.
  void set_capacity_degree(double degree) noexcept;

  /// Invoked at the end of every tick with that period's stats — the SLO
  /// feedback path into the sprint strategy.
  void set_slo_callback(std::function<void(const ServingStats&)> callback);

  /// Optional per-tick channels: serving_p50_ms, serving_p99_ms,
  /// serving_p999_ms, serving_window_p99_ms, serving_backlog,
  /// serving_dropped, serving_admitted, plus the four error-budget channels
  /// (see enable_error_budget) when the budget is on. The first tick starts
  /// the recorder with these channels (dropping what it held), reserved for
  /// the demand trace's horizon; every tick appends one row. Must outlive
  /// the run.
  void set_recorder(sim::Recorder* recorder) noexcept;

  /// Optional decision-provenance log: tick() emits admission-clamp /
  /// admission-release on drop edges and a one-shot slo-budget-exhausted
  /// when the error budget (if enabled) runs out. Must outlive the run.
  void set_decision_log(obs::DecisionLog* decisions) noexcept {
    decisions_ = decisions;
  }

  /// Enables SLO error-budget accounting over the per-tick window p99.
  /// With a recorder attached, adds channels slo_budget_remaining,
  /// slo_burn_fast, slo_burn_slow and the monotone slo_budget_violations.
  void enable_error_budget(ErrorBudgetParams params);

  void tick(Duration now, Duration dt) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "serving";
  }

  [[nodiscard]] const LatencyTracker& latency() const noexcept {
    return tracker_;
  }
  [[nodiscard]] std::size_t offered_total() const noexcept {
    return offered_total_;
  }
  [[nodiscard]] std::size_t dropped_total() const noexcept {
    return dropped_total_;
  }
  [[nodiscard]] double drop_fraction() const noexcept;
  [[nodiscard]] double backlog_total() const noexcept;

 private:
  ServingParams params_;
  RequestSource source_;
  std::vector<std::unique_ptr<QueueModel>> queues_;
  std::unique_ptr<PlacementPolicy> placement_;
  std::vector<ServerLoad> loads_;
  std::vector<std::size_t> per_server_;
  LatencyTracker tracker_;
  Rng base_;
  std::uint64_t tick_index_ = 0;
  double degree_ = 1.0;
  std::size_t offered_total_ = 0;
  std::size_t dropped_total_ = 0;
  std::function<void(const ServingStats&)> slo_callback_;
  sim::Recorder* recorder_ = nullptr;
  bool recording_ = false;  // recorder_ started with this layer's channels
  obs::DecisionLog* decisions_ = nullptr;
  std::optional<ErrorBudget> budget_;
  bool clamping_ = false;
  bool budget_exhausted_reported_ = false;
};

}  // namespace dcs::serving
