#include "core/oracle.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <numeric>
#include <utility>

#include "core/controller.h"
#include "exp/thread_pool.h"
#include "obs/profile.h"
#include "util/check.h"

namespace dcs::core {

namespace {

/// One trace's share of a search.
struct Plan {
  /// Candidates to simulate: up to the first whose cap covers the trace.
  std::size_t runs = 0;
  /// End of the last burst tick, and the run-loop ticks up to there.
  Duration cut = Duration::zero();
  std::size_t ticks = 0;
};

/// Whether each tick of `rider` before `cut` reads what the same tick of
/// `host` reads: at() there reads only the samples before `cut`, so both
/// must hold the same ones, bit for bit (and one at least: a tick before
/// every sample reads the first).
bool rides(const TimeSeries& rider, const TimeSeries& host, Duration cut) {
  const auto before = [cut](const TimeSeries& series) {
    return static_cast<std::size_t>(std::ranges::lower_bound(
                                        series.samples(), cut, {},
                                        &Sample::time) -
                                    series.samples().begin());
  };
  const std::size_t n = before(rider);
  return n > 0 && before(host) == n &&
         std::equal(rider.samples().begin(), rider.samples().begin() + n,
                    host.samples().begin(),
                    [](const Sample& a, const Sample& b) {
                      return a.time == b.time &&
                             std::bit_cast<std::uint64_t>(a.value) ==
                                 std::bit_cast<std::uint64_t>(b.value);
                    });
}

}  // namespace

std::vector<OracleResult> oracle_search(const DataCenter& dc,
                                        std::span<const TimeSeries> demands,
                                        std::size_t core_stride,
                                        std::size_t threads) {
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

  const compute::Fleet& fleet = dc.fleet();
  const Duration dt = dc.config().control_period;
  std::vector<Plan> plans(demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const TimeSeries& demand = demands[i];
    Plan& plan = plans[i];
    // A bound is only a cap: in these controlled, fault-free, one-zone runs
    // each tick asks for clamp(cores_for_demand(sample), normal, cap) cores,
    // and the bound reaches the plant nowhere else. So every candidate
    // whose cap covers the most cores any sample asks for repeats the first
    // such candidate's run bit for bit, and the scan simulates candidates
    // only up to that one.
    std::size_t need = normal;
    for (const Sample& sample : demand.samples()) {
      need = std::max(need, fleet.throughput().cores_for_demand(sample.value));
    }
    plan.runs = 1;
    while (plan.runs < bounds.size() &&
           fleet.cap_cores(bounds[plan.runs - 1]) < need) {
      ++plan.runs;
    }
    // Nor can a bound reach the plant after the last burst tick: the bound
    // is 1 outside a burst, so every candidate runs the normal cores there
    // and each tick adds min(demand, 1) to both integrals its performance
    // divides. Walk the trace on the run loop's clock to find the cut (the
    // end of the last burst tick); each candidate simulates only the trace
    // up to the cut and then adds the ticks after it in tick order.
    TimeSeries::Cursor cursor;
    std::size_t tick = 0;
    for (Duration now = Duration::zero(); now < demand.end_time();) {
      const double sample = demand.at(now, cursor);
      DCS_REQUIRE(sample >= 0.0, "demand must be non-negative");
      now += dt;
      ++tick;
      if (burst_active(sample)) {
        plan.cut = now;
        plan.ticks = tick;
      }
    }
    // Without a burst tick there is nothing to simulate: every candidate's
    // run is the ticks after the cut alone.
    if (plan.ticks == 0) plan.runs = 0;
  }

  // Host longest cut first: each trace rides on the first host that holds
  // its samples before its cut, or hosts itself. A host simulates as many
  // candidates as any of its riders needs, and lists its riders (itself
  // among them) shortest first, in the order its runs reach their cuts.
  std::vector<std::size_t> order(demands.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::ranges::stable_sort(order, std::greater<>{},
                           [&](std::size_t i) { return plans[i].cut; });
  std::vector<std::size_t> hosts;
  std::vector<std::vector<std::size_t>> riders(demands.size());
  std::vector<std::size_t> host_runs(demands.size(), 0);
  for (const std::size_t i : order) {
    if (plans[i].runs == 0) continue;
    const auto found = std::ranges::find_if(hosts, [&](std::size_t h) {
      return rides(demands[i], demands[h], plans[i].cut);
    });
    const std::size_t h = found != hosts.end() ? *found : hosts.emplace_back(i);
    riders[h].insert(riders[h].begin(), i);
    host_runs[h] = std::max(host_runs[h], plans[i].runs);
  }

  // One task per host and candidate, longest heads first. Each simulates
  // the host's head: the trace up to its cut, or the whole trace when the
  // last tick bursts.
  std::vector<std::pair<std::size_t, std::size_t>> tasks;
  std::vector<TimeSeries> heads(demands.size());
  for (const std::size_t h : hosts) {
    for (std::size_t j = 0; j < host_runs[h]; ++j) tasks.emplace_back(h, j);
    if (plans[h].cut < demands[h].end_time()) {
      heads[h] = demands[h].slice(Duration::zero(), plans[h].cut);
    }
  }
  std::vector<OracleResult> out(demands.size());
  for (OracleResult& result : out) result.sweep.assign(bounds.size(), {});
  const auto finish = [&](std::size_t i, ThroughputIntegrals sums) {
    add_normal_ticks(sums, demands[i], plans[i].cut, dt);
    return sums.performance_factor(demands[i].end_time());
  };
  exp::parallel_for(tasks.size(), threads, [&](std::size_t t) {
    DCS_OBS_SPAN("oracle.candidate");
    const auto [h, j] = tasks[t];
    const std::vector<std::size_t>& rode = riders[h];
    // The run's integrals after each rider's ticks: the host's, the last
    // of them, must be the run's own.
    std::vector<ThroughputIntegrals> at_cut(rode.size());
    ThroughputIntegrals sums;
    std::size_t tick = 0;
    std::size_t next = 0;
    RunOptions options;
    options.on_step = [&](Duration, Duration step_dt, const StepResult& step) {
      sums.add(step.achieved, std::min(step.demand, 1.0), step_dt);
      ++tick;
      for (; next < rode.size() && plans[rode[next]].ticks == tick; ++next) {
        at_cut[next] = sums;
      }
    };
    DataCenter task_dc(dc.config());
    ConstantBoundStrategy strategy(bounds[j], "oracle");
    const RunResult run = task_dc.run(
        heads[h].empty() ? demands[h] : heads[h], &strategy, options);
    DCS_ENSURE(next == rode.size() &&
                   at_cut.back().achieved == run.throughput.achieved &&
                   at_cut.back().baseline == run.throughput.baseline,
               "the integrals read at the host's cut are not its run's");
    for (std::size_t r = 0; r < rode.size(); ++r) {
      if (plans[rode[r]].runs > j) {
        out[rode[r]].sweep[j] = {bounds[j], finish(rode[r], at_cut[r])};
      }
    }
  });

  for (std::size_t i = 0; i < demands.size(); ++i) {
    const std::size_t runs = plans[i].runs;
    const double shared =
        runs > 0 ? out[i].sweep[runs - 1].second : finish(i, {});
    for (std::size_t j = runs; j < bounds.size(); ++j) {
      out[i].sweep[j] = {bounds[j], shared};
    }
    // Combine in candidate order: identical to the serial scan (strict '>'
    // keeps the lowest best bound on ties).
    for (const auto& [bound, performance] : out[i].sweep) {
      if (performance > out[i].best_performance) {
        out[i].best_performance = performance;
        out[i].best_bound = bound;
      }
    }
  }
  return out;
}

OracleResult oracle_search(const DataCenter& dc, const TimeSeries& demand,
                           std::size_t core_stride, std::size_t threads) {
  return std::move(
      oracle_search(dc, std::span(&demand, 1), core_stride, threads).front());
}

UpperBoundTable build_upper_bound_table(const DataCenter& dc,
                                        std::span<const Duration> durations,
                                        std::span<const double> degrees,
                                        const workload::YahooTraceParams& base,
                                        std::size_t core_stride,
                                        std::size_t threads) {
  DCS_REQUIRE(durations.size() >= 2, "need at least two durations");
  DCS_REQUIRE(degrees.size() >= 2, "need at least two degrees");

  // Up to its last burst tick, each cell's trace is the longest burst's of
  // its degree (same seed, baseline and burst start), so one search per
  // degree simulates that burst once for all its cells.
  std::vector<double> bounds(durations.size() * degrees.size(), 1.0);
  std::vector<TimeSeries> traces(durations.size());
  for (std::size_t j = 0; j < degrees.size(); ++j) {
    for (std::size_t i = 0; i < durations.size(); ++i) {
      workload::YahooTraceParams params = base;
      params.burst_duration = durations[i];
      params.burst_degree = degrees[j];
      // Keep the burst inside the trace window.
      if (params.burst_start + params.burst_duration > params.length) {
        params.length = params.burst_start + params.burst_duration +
                        Duration::minutes(5);
      }
      traces[i] = workload::generate_yahoo_trace(params);
    }
    const std::vector<OracleResult> cells =
        oracle_search(dc, traces, core_stride, threads);
    for (std::size_t i = 0; i < durations.size(); ++i) {
      bounds[i * degrees.size() + j] = cells[i].best_bound;
    }
  }

  return UpperBoundTable(std::vector<Duration>(durations.begin(), durations.end()),
                         std::vector<double>(degrees.begin(), degrees.end()),
                         std::move(bounds));
}

}  // namespace dcs::core
