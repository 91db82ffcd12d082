#include "core/oracle.h"

#include <algorithm>
#include <utility>

#include "core/controller.h"
#include "exp/thread_pool.h"
#include "obs/profile.h"
#include "util/check.h"

namespace dcs::core {

OracleResult oracle_search(const DataCenter& dc, const TimeSeries& demand,
                           std::size_t core_stride, std::size_t threads) {
  DCS_REQUIRE(core_stride >= 1, "core stride must be at least 1");
  const auto& chip = dc.config().fleet.server.chip;
  const std::size_t normal = chip.normal_cores;
  const std::size_t total = chip.total_cores;

  std::vector<double> bounds;
  for (std::size_t cores = normal; cores <= total;
       cores = std::min(cores + core_stride, total + 1)) {
    bounds.push_back(static_cast<double>(cores) / static_cast<double>(normal));
    if (cores == total) break;
  }

  // A bound is only a cap: in these controlled, fault-free, one-zone runs
  // each tick asks for clamp(cores_for_demand(sample), normal, cap) cores,
  // and the bound reaches the plant nowhere else. So every candidate whose
  // cap covers the most cores any sample asks for repeats the first such
  // candidate's run bit for bit, and the scan simulates candidates only up
  // to that one.
  const compute::Fleet& fleet = dc.fleet();
  std::size_t need = normal;
  for (const Sample& sample : demand.samples()) {
    need = std::max(need, fleet.throughput().cores_for_demand(sample.value));
  }
  std::size_t runs = 1;
  while (runs < bounds.size() && fleet.cap_cores(bounds[runs - 1]) < need) {
    ++runs;
  }

  // Nor can a bound reach the plant after the last burst tick: the bound
  // is 1 outside a burst, so every candidate runs the normal cores there
  // and each tick adds min(demand, 1) to both integrals its performance
  // divides. Walk the trace on the run loop's clock to find the cut (the
  // end of the last burst tick); each candidate simulates only the trace
  // up to the cut and then adds the ticks after it in tick order.
  const Duration dt = dc.config().control_period;
  const Duration end = demand.end_time();
  Duration cut = Duration::zero();
  TimeSeries::Cursor cursor;
  for (Duration now = Duration::zero(); now < end;) {
    const double sample = demand.at(now, cursor);
    DCS_REQUIRE(sample >= 0.0, "demand must be non-negative");
    now += dt;
    if (burst_active(sample)) cut = now;
  }
  // Without a burst tick there is nothing to simulate: every candidate's
  // run is the ticks after the cut alone.
  if (cut == Duration::zero()) runs = 0;
  const TimeSeries head = runs > 0 && cut < end
                              ? demand.slice(Duration::zero(), cut)
                              : TimeSeries{};
  const TimeSeries& simulated = cut < end ? head : demand;
  const auto finish = [&](ThroughputIntegrals sums) {
    add_normal_ticks(sums, demand, cut, dt);
    return sums.performance_factor(end);
  };

  OracleResult out;
  out.sweep.assign(bounds.size(), {});
  exp::parallel_for(runs, threads, [&](std::size_t i) {
    DCS_OBS_SPAN("oracle.candidate");
    DataCenter task_dc(dc.config());
    ConstantBoundStrategy strategy(bounds[i], "oracle");
    out.sweep[i] = {bounds[i],
                    finish(task_dc.run(simulated, &strategy).throughput)};
  });
  const double shared = runs > 0 ? out.sweep[runs - 1].second : finish({});
  for (std::size_t i = runs; i < bounds.size(); ++i) {
    out.sweep[i] = {bounds[i], shared};
  }

  // Combine in candidate order: identical to the serial scan (strict '>'
  // keeps the lowest best bound on ties).
  for (const auto& [bound, performance] : out.sweep) {
    if (performance > out.best_performance) {
      out.best_performance = performance;
      out.best_bound = bound;
    }
  }
  return out;
}

UpperBoundTable build_upper_bound_table(const DataCenter& dc,
                                        std::span<const Duration> durations,
                                        std::span<const double> degrees,
                                        const workload::YahooTraceParams& base,
                                        std::size_t core_stride,
                                        std::size_t threads) {
  DCS_REQUIRE(durations.size() >= 2, "need at least two durations");
  DCS_REQUIRE(degrees.size() >= 2, "need at least two degrees");

  std::vector<workload::YahooTraceParams> cells;
  cells.reserve(durations.size() * degrees.size());
  for (const Duration d : durations) {
    for (const double degree : degrees) {
      workload::YahooTraceParams params = base;
      params.burst_duration = d;
      params.burst_degree = degree;
      // Keep the burst inside the trace window.
      if (params.burst_start + params.burst_duration > params.length) {
        params.length = params.burst_start + params.burst_duration +
                        Duration::minutes(5);
      }
      cells.push_back(params);
    }
  }

  // A cell's search simulates up to the end of its burst, so it costs more
  // the longer the burst and the more candidates its degree needs. Both
  // axes increase, so cells start from the last one: the longest searches
  // first, the short ones filling in behind them.
  std::vector<double> bounds(cells.size(), 1.0);
  exp::parallel_for(cells.size(), threads, [&](std::size_t k) {
    const std::size_t i = cells.size() - 1 - k;
    const TimeSeries trace = workload::generate_yahoo_trace(cells[i]);
    bounds[i] = oracle_search(dc, trace, core_stride, /*threads=*/1).best_bound;
  });

  return UpperBoundTable(std::vector<Duration>(durations.begin(), durations.end()),
                         std::vector<double>(degrees.begin(), degrees.end()),
                         std::move(bounds));
}

}  // namespace dcs::core
