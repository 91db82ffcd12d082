// The repository benchmark: three workloads at the paper's 909-PDU
// facility, each a "pass" that sets up, runs and checks one figure-shaped
// batch of simulations.
//
// The benchmark drives the library only through the facade the figure
// benches use (DataCenter::run / RunOptions, oracle_search,
// build_upper_bound_table, ServingLayer, exp::run_sweep, the obs Tracer /
// DecisionLog / export_counters, and bench_util's stream-sink helper), so
// refactors behind that facade land without editing it. It attributes time
// to layers by timing its own calls into them: spans here bracket library
// calls, never code inside the library.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------- statistics

/// Median of `values` (mean of the middle pair for an even count); 0 when
/// empty.
[[nodiscard]] double median(std::vector<double> values);

/// The `percent`-th percentile of `values` by nearest rank: the
/// ⌈percent × n / 100⌉-th smallest of n samples (for p90, the largest of up
/// to nine); 0 when empty.
[[nodiscard]] double percentile(std::vector<double> values, int percent);

/// run_ms_tail's percentile. It is p90 rather than the highest percentile
/// with ten runs beyond it, which is p98-p99.5 at the few thousand runs
/// strategies_909 gathers: on a shared virtual machine that far tail of
/// millisecond runs is host jitter, and between runs of the same code it
/// moved by 40-55% of its median.
inline constexpr int kTailPercent = 90;

/// The paper's Fig. 9 band of average performance factors.
inline constexpr double kFig9BandLow = 1.62;
inline constexpr double kFig9BandHigh = 1.76;

/// Mean distance of `factors` outside the Fig. 9 band; a factor inside the
/// band contributes 0. 0 for an empty grid.
[[nodiscard]] double paper_gap(const std::vector<double>& factors);

/// FNV-1a over the exact bit patterns of the simulated outputs, so any
/// change in any output digit changes the digest.
class Digest {
 public:
  void add(double value);
  void add(std::uint64_t value);
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  void add_bytes(const void* data, std::size_t size);
  std::uint64_t hash_ = 1469598103934665603ULL;
};

/// Independent generator seed number `stream` derived from the benchmark
/// seed (splitmix64), so one --seed feeds every generator.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

// --------------------------------------------------------------------- spans

/// Microseconds on the steady clock since the first call in the process.
[[nodiscard]] double now_us();

/// Moves the calling thread onto the next CPU it may run on, in turn, and
/// leaves it free to run anywhere again, so threads it starts later are not
/// pinned. On a shared virtual machine one CPU can run 40-60% slow for
/// seconds at a time, while a single-threaded pass stays on whichever CPU
/// the scheduler gave it first; moving on before each pass makes a run's
/// medians sample every CPU. Does nothing where affinity is unavailable.
void next_cpu();

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  /// Index of the enclosing span in the same log, or -1 for a root.
  int parent = -1;
  [[nodiscard]] double duration_us() const noexcept {
    return end_us - start_us;
  }
};

/// In-memory span log shared by the pass thread and the sweep workers.
/// Disabled logs record nothing and hand out id -1.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Starts a span now; close() ends it.
  int open(std::string_view name, int parent);
  void close(int id);
  /// Records a finished leaf span.
  void add(std::string_view name, double start_us, double end_us, int parent);
  [[nodiscard]] std::vector<Span> spans() const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string_view name, int parent)
      : log_(log), id_(log.open(name, parent)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

/// Durations (µs) of every span called `name`.
[[nodiscard]] std::vector<double> span_durations(const std::vector<Span>& spans,
                                                 std::string_view name);
/// Self time (µs) of span `id`: its duration minus the union of its
/// children's intervals.
[[nodiscard]] double self_time_us(const std::vector<Span>& spans, int id);

// ------------------------------------------------------------------- metrics

/// One reported metric. For a per-layer metric, `moves` names the
/// end-to-end metrics it should move and `on` the workloads it moves on;
/// on the other workloads it should stay put.
struct MetricInfo {
  std::string_view name;
  std::string_view unit;
  std::string_view better;
  std::string_view moves = {};
  std::string_view on = {};
};

/// Printed by --trace 0, with the benchmark's spans off.
inline constexpr MetricInfo kEndToEnd[] = {
    {"setup_s", "s", "lower"},
    {"wall_s", "s", "lower"},
    {"run_ms_p50", "ms", "lower"},
    {"run_ms_tail", "ms", "lower"},
    {"peak_rss_mb", "MB", "lower"},
};

/// Printed by --trace 1. A metric of a layer a workload does not exercise
/// reads 0 there.
inline constexpr MetricInfo kPerLayer[] = {
    {"workload.gen_ms", "ms", "lower", "setup_s", "all"},
    {"core.dc_init_us", "us", "lower", "setup_s", "all"},
    {"core.run_fixed_us", "us", "lower", "run_ms_p50", "strategies_909"},
    {"core.tick_ns", "ns", "lower", "run_ms_p50 wall_s", "strategies_909"},
    {"core.pdu_scale", "ratio", "lower", "wall_s", "strategies_909"},
    {"core.ubt_ms", "ms", "lower", "wall_s", "strategies_909"},
    {"core.oracle_ms", "ms", "lower", "wall_s", "strategies_909"},
    {"core.runs", "count", "higher", "(base of ratios)", "all"},
    {"sim.ticks", "count", "higher", "(base of ratios)", "all"},
    {"serving.tick_us", "us", "lower", "run_ms_p50 run_ms_tail wall_s",
     "serving_slo"},
    {"serving.ns_per_req", "ns", "lower", "run_ms_p50 run_ms_tail wall_s",
     "serving_slo"},
    {"serving.requests", "count", "higher", "(count)", "serving_slo"},
    {"serving.admit_ratio", "ratio", "higher", "(count)", "serving_slo"},
    {"faults.tick_ns", "ns", "lower", "wall_s", "day_traced"},
    {"obs.record_tick_ns", "ns", "lower", "wall_s peak_rss_mb", "day_traced"},
    {"obs.trace_tick_ns", "ns", "lower", "wall_s", "day_traced"},
    {"obs.export_ms", "ms", "lower", "wall_s", "day_traced"},
    {"obs.events", "count", "lower", "wall_s peak_rss_mb", "day_traced"},
    {"obs.ns_per_event", "ns", "lower", "wall_s", "day_traced"},
    {"obs.bytes_per_event", "B", "lower", "wall_s", "day_traced"},
    {"obs.trace_mb", "MB", "lower", "wall_s", "day_traced"},
    {"exp.sweep_ms", "ms", "lower", "wall_s", "strategies_909 serving_slo"},
    {"exp.task_ms", "ms", "lower", "wall_s", "strategies_909 serving_slo"},
    {"exp.parallel_eff", "ratio", "higher", "wall_s",
     "strategies_909 serving_slo"},
    {"paper_gap", "factor", "lower", "(accuracy)", "strategies_909"},
    {"span.unattributed_ms", "ms", "lower", "(pass time no span covers)",
     "all"},
    {"span.overhead", "ratio", "lower", "(spans' own cost)", "all"},
};

// ----------------------------------------------------------------- workloads

inline constexpr std::string_view kWorkloads[] = {"strategies_909",
                                                  "serving_slo", "day_traced"};

struct Settings {
  std::uint64_t seed = 1;
  std::size_t workers = 1;
  std::size_t pdus = 909;
  /// Smaller grids and shorter traces, so a pass takes a fraction of a
  /// second (unit tests).
  bool tiny = false;
  /// day_traced writes each pass's sinks into a fresh directory under this
  /// one and removes it after the pass.
  std::string scratch_dir = ".";
};

/// What one pass measured and checked.
struct PassResult {
  /// Mean host time of one set-up (trace and fault-schedule generation
  /// plus DataCenter construction) over the pass's repetitions.
  double setup_s = 0.0;
  /// Host time of the pass after set-up.
  double wall_s = 0.0;
  /// Host time of each DataCenter::run the pass issued (attribution extras
  /// of a traced pass excluded).
  std::vector<double> run_ms;
  /// Runs issued and checked, extras included.
  std::size_t attempted = 0;
  /// One line per failed check.
  std::vector<std::string> failures;
  /// Digest of every simulated output of the pass.
  std::uint64_t digest = 0;
  /// Per-layer values (traced passes only), keyed by metric name.
  std::map<std::string, double> layers;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs one pass. Spans go to `spans` when it is enabled; a traced pass
  /// also runs its attribution extras and fills PassResult::layers.
  [[nodiscard]] virtual PassResult pass(SpanLog& spans, bool traced) = 0;
};

/// Throws std::invalid_argument for a name outside kWorkloads.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      const Settings& settings);

}  // namespace perfbench
