// The Oracle strategy (paper Section V-A): with perfect knowledge of the
// burst, exhaustively search the constant sprinting-degree upper bound that
// maximizes average performance. Impractical online, it serves as the
// reference the other strategies are compared against, and it populates the
// upper-bound table the Prediction strategy consults.
#pragma once

#include <span>
#include <vector>

#include "core/datacenter.h"
#include "core/strategy.h"
#include "core/upper_bound_table.h"
#include "util/time_series.h"
#include "workload/yahoo_trace.h"

namespace dcs::core {

struct OracleResult {
  double best_bound = 1.0;
  double best_performance = 1.0;
  /// One (bound, performance) point per candidate, in candidate order.
  /// Candidates whose core cap covers every sample's demand share one
  /// run's performance (see oracle_search).
  std::vector<std::pair<double, double>> sweep;
};

/// Exhaustive search over constant upper bounds (one candidate per
/// `core_stride` cores between the normal and total core count), once per
/// trace of `demands`: one result per trace, in trace order.
///
/// A bound is only a cap (Fleet::operate turns on just the cores the demand
/// asks for), so all candidates whose core cap covers the most cores any
/// sample of a trace asks for give the same run, bit for bit. The search
/// simulates candidates up to the first of them, and the later ones share
/// its performance.
///
/// Nor does a bound act after the trace's last burst tick (demand above
/// 1 + kDegreeEps at a tick of the run loop's clock): the bound is 1 there
/// for every candidate, so each later tick runs the normal cores and adds
/// min(demand, 1) to both integrals of the performance factor. A trace's
/// candidates are simulated only up to the end of that tick (its cut), and
/// the shared tail is added to their integrals in tick order
/// (add_normal_ticks); a trace with no burst tick simulates nothing.
///
/// Nor does a run look ahead: its first n ticks read only the samples
/// before the n-th tick's end. So a trace *rides* on a host trace whose cut
/// is no earlier when both hold the same samples, time and value bit for
/// bit, at every sample time before the rider's cut: each candidate
/// simulates only each host's head once, and reads a rider's integrals off
/// that run (RunOptions::on_step) after the rider's own tick count. Traces
/// are hosted longest cut first.
///
/// `sweep` still holds every candidate's point, and each result equals a
/// scan that simulates every candidate over its whole trace alone, bit for
/// bit.
///
/// The simulated candidates are independent simulations, so they run on
/// the `src/exp` parallel runner, `threads` candidate runs at a time (0 =
/// all hardware threads): each task owns a fresh DataCenter built from
/// `dc.config()` (run() builds fresh plant state per call, so this is
/// bit-identical to reusing `dc`) and writes its own sweep points, so the
/// results are bit-identical for any `threads` value.
[[nodiscard]] std::vector<OracleResult> oracle_search(
    const DataCenter& dc, std::span<const TimeSeries> demands,
    std::size_t core_stride = 2, std::size_t threads = 0);

/// The search over one trace.
[[nodiscard]] OracleResult oracle_search(const DataCenter& dc,
                                         const TimeSeries& demand,
                                         std::size_t core_stride = 2,
                                         std::size_t threads = 0);

/// Builds the (burst duration x max burst degree) -> optimal bound table by
/// running the oracle search on synthetic Yahoo-style bursts (`base` sets
/// everything but the burst duration/degree). The cells of one degree
/// share seed, baseline and burst start, so up to its last burst tick each
/// cell's trace is the longest cell's: the table makes one search per
/// degree over that degree's cells, whose candidates then simulate the
/// longest burst once for all of them, `threads` candidate runs at a time.
/// One degree's traces are alive at a time, and the table is bit-identical
/// for any `threads` value.
[[nodiscard]] UpperBoundTable build_upper_bound_table(
    const DataCenter& dc, std::span<const Duration> durations,
    std::span<const double> degrees, const workload::YahooTraceParams& base,
    std::size_t core_stride = 2, std::size_t threads = 0);

}  // namespace dcs::core
