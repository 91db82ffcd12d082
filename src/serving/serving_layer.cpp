#include "serving/serving_layer.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <string>

#include "util/check.h"

namespace dcs::serving {
namespace {

constexpr std::array<const char*, 7> kServingChannels = {
    "serving_p50_ms",        "serving_p99_ms",  "serving_p999_ms",
    "serving_window_p99_ms", "serving_backlog", "serving_dropped",
    "serving_admitted"};
/// Recorded after kServingChannels when the error budget is on.
constexpr std::array<const char*, 4> kBudgetChannels = {
    "slo_budget_remaining", "slo_burn_fast", "slo_burn_slow",
    "slo_budget_violations"};

}  // namespace

ServingLayer::ServingLayer(ServingParams params)
    : params_(std::move(params)),
      source_(RequestSourceParams{params_.peak_rps, params_.seed}),
      placement_(make_placement(params_.placement, params_.servers)),
      tracker_(params_.window_ticks),
      base_(Rng(params_.seed).fork(0x5e72f1ceULL)) {
  DCS_REQUIRE(params_.servers > 0, "need at least one server");
  DCS_REQUIRE(params_.admit_factor > 0.0, "admit_factor must be positive");
  DCS_REQUIRE(params_.demand != nullptr && !params_.demand->empty(),
              "serving layer needs a demand trace");
  queues_.reserve(params_.servers);
  for (std::size_t i = 0; i < params_.servers; ++i) {
    queues_.push_back(make_queue_model(params_.queue_model, params_.queue));
  }
  loads_.resize(params_.servers);
  per_server_.resize(params_.servers);
}

void ServingLayer::set_capacity_degree(double degree) noexcept {
  degree_ = std::max(degree, 0.0);
}

void ServingLayer::set_slo_callback(
    std::function<void(const ServingStats&)> callback) {
  slo_callback_ = std::move(callback);
}

void ServingLayer::set_recorder(sim::Recorder* recorder) noexcept {
  recorder_ = recorder;
  recording_ = false;
}

void ServingLayer::enable_error_budget(ErrorBudgetParams params) {
  budget_.emplace(params);
  budget_exhausted_reported_ = false;
}

double ServingLayer::drop_fraction() const noexcept {
  return offered_total_ > 0 ? static_cast<double>(dropped_total_) /
                                  static_cast<double>(offered_total_)
                            : 0.0;
}

double ServingLayer::backlog_total() const noexcept {
  double total = 0.0;
  for (const auto& queue : queues_) total += queue->backlog();
  return total;
}

void ServingLayer::tick(Duration now, Duration dt) {
  const double demand = params_.demand->at(now);
  const std::size_t offered = source_.arrivals(tick_index_, demand, dt);

  // Request admission control: the capacity the active core set can absorb
  // this period, with admit_factor of queueing headroom on top. The excess
  // is denied outright (the paper's "last resort") rather than queued into
  // an unbounded backlog.
  const double capacity_rps = degree_ * params_.peak_rps;
  const double cap = params_.admit_factor * capacity_rps * dt.sec();
  // Compared in double, so only a cap below the offered count is cast: a
  // cap at or above it (infinite too) admits everything, a NaN one nothing.
  std::size_t admitted = 0;
  if (cap >= static_cast<double>(offered)) {
    admitted = offered;
  } else if (cap >= 1.0) {
    admitted = static_cast<std::size_t>(cap);
  }
  offered_total_ += offered;
  dropped_total_ += offered - admitted;

  // Placement: the policy's per-server counts against the live view.
  placement_->place(loads_, admitted, per_server_);

  // Service over the currently active core set, one Rng stream per
  // (tick, server) so the latency sample sequence is reproducible.
  const double mu = capacity_rps / static_cast<double>(params_.servers);
  const Rng tick_rng = base_.fork(tick_index_);
  for (std::size_t s = 0; s < params_.servers; ++s) {
    Rng server_rng = tick_rng.fork(s);
    queues_[s]->step(per_server_[s], mu, dt, server_rng, tracker_);
    loads_[s].backlog = queues_[s]->backlog();
  }
  tracker_.end_tick();

  ServingStats stats;
  stats.offered = offered;
  stats.admitted = admitted;
  stats.dropped = offered - admitted;
  stats.p99_s = tracker_.window_p99();
  stats.backlog = backlog_total();

  // Admission decisions on the drop edge: the tick request denial starts
  // (clamp) and the tick it stops (release), with the cap that was binding.
  const bool clamping = stats.dropped > 0;
  if (decisions_ != nullptr && clamping != clamping_) {
    decisions_->emit(clamping ? obs::DecisionRule::kAdmissionClamp
                              : obs::DecisionRule::kAdmissionRelease,
                     {{"offered", static_cast<double>(stats.offered)},
                      {"admitted", static_cast<double>(stats.admitted)},
                      {"backlog", stats.backlog}},
                     {{"cap", cap}});
  }
  clamping_ = clamping;

  if (budget_) {
    budget_->observe(stats.p99_s);
    if (decisions_ != nullptr && budget_->exhausted() &&
        !budget_exhausted_reported_) {
      // One-shot: the budget hitting zero is a run-level verdict, not a
      // per-tick condition.
      decisions_->emit(
          obs::DecisionRule::kSloBudgetExhausted,
          {{"burn_fast", budget_->burn_fast()},
           {"burn_slow", budget_->burn_slow()},
           {"violations", static_cast<double>(budget_->violations())}},
          {{"budget_fraction", budget_->params().budget_fraction}});
      budget_exhausted_reported_ = true;
    }
  }

  if (recorder_ != nullptr) {
    if (!recording_) {
      // The channel set is fixed for the run, with columns reserved for the
      // demand trace's horizon.
      std::vector<std::string> channels(kServingChannels.begin(),
                                        kServingChannels.end());
      if (budget_) {
        channels.insert(channels.end(), kBudgetChannels.begin(),
                        kBudgetChannels.end());
      }
      recorder_->start(std::move(channels),
                       static_cast<std::size_t>(
                           std::ceil(params_.demand->end_time() / dt)) +
                           1);
      recording_ = true;
    }
    // In kServingChannels then kBudgetChannels order.
    std::array<double, kServingChannels.size() + kBudgetChannels.size()> row{
        tracker_.p50() * 1e3,
        tracker_.p99() * 1e3,
        tracker_.p999() * 1e3,
        stats.p99_s * 1e3,
        stats.backlog,
        static_cast<double>(stats.dropped),
        static_cast<double>(stats.admitted)};
    std::size_t width = kServingChannels.size();
    if (budget_) {
      for (const double value :
           {budget_->remaining(), budget_->burn_fast(), budget_->burn_slow(),
            static_cast<double>(budget_->violations())}) {
        row[width++] = value;
      }
    }
    recorder_->append(now, std::span<const double>(row.data(), width));
  }
  if (slo_callback_) slo_callback_(stats);
  ++tick_index_;
}

}  // namespace dcs::serving
