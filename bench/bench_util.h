// Shared helpers for the figure-reproduction benches.
#pragma once

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.h"
#include "exp/aggregator.h"
#include "exp/reporter.h"
#include "exp/runner.h"
#include "exp/sweep.h"
#include "obs/counters.h"
#include "obs/profile.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "util/config.h"
#include "util/time_series.h"

namespace dcs::bench {

/// What a command-line key's value must parse as (Config::get_string,
/// get_double, get_count).
enum class Kind { kText, kNumber, kCount };

/// A command-line key and the kind of its value.
struct Key {
  std::string_view name;
  Kind kind = Kind::kText;
};

/// Keys every bench understands: the shared data-center knobs plus the
/// sweep-runner knobs (threads=<n>, csv=<dir>, perf=<dir>, checkpoint=<dir>
/// for crash-safe resume files, shard=<i>/<N> to run one contiguous slice
/// of every grid) and the observability knobs (trace=<dir> for the JSONL
/// trace, which `trace_query perfetto` renders for the Perfetto UI,
/// telemetry=<path> for the worker telemetry stream a supervising
/// dispatcher merges into its timeline — see obs/sink.h).
inline constexpr Key kCommonKeys[] = {
    {"pdus", Kind::kCount}, {"dc_headroom", Kind::kNumber},
    {"pue", Kind::kNumber}, {"csv"}, {"perf"}, {"threads", Kind::kCount},
    {"trace"}, {"checkpoint"}, {"shard"}, {"telemetry"}};

/// Default recorder channels exported as counter tracks by the traced
/// benches: physical state (state of charge, breaker trip margin,
/// room temperature, chiller draw) next to the control trajectory (degree).
inline const std::vector<std::string> kDefaultCounterChannels = {
    "ups_soc",  "tes_soc", "cb_trip_margin_s",
    "room_c",   "degree",  "cooling_mw"};

/// Reports a usage error on stderr and exits 2.
[[noreturn]] inline void usage_error(const char* program,
                                     const std::string& what) {
  std::cerr << program << ": error: " << what << "\nusage: " << program
            << " [key=value ...]\n";
  std::exit(2);
}

/// Reads "key=value" command-line arguments, the one reader of every bench
/// and example. A malformed token, a key outside `keys` or a value that
/// does not parse as its key's kind is a usage error that names the key,
/// before anything runs; after it, no getter of a listed key throws.
inline Config read_args(int argc, char** argv, std::span<const Key> keys) {
  try {
    const Config args = Config::from_args(std::span<const char* const>(
        argv + 1, static_cast<std::size_t>(argc - 1)));
    std::vector<std::string_view> names;
    for (const Key& key : keys) names.push_back(key.name);
    args.require_known(names);
    for (const Key& key : keys) {
      const std::string name(key.name);
      if (key.kind == Kind::kNumber) (void)args.get_double(name, 0.0);
      if (key.kind == Kind::kCount) (void)args.get_count(name, 0);
    }
    return args;
  } catch (const std::exception& e) {
    usage_error(argv[0], e.what());
  }
}

/// Makes what a run builds from the values of `keys` (`make` constructs,
/// generates or validates it, or is the run when the run checks the value
/// before its first tick) and returns it. The checks `make` runs itself are
/// the rules: a value out of their domain is a usage error naming `what`
/// and the keys the command line set.
template <typename Make>
decltype(auto) checked(const char* program, const Config& args,
                       std::initializer_list<std::string_view> keys,
                       std::string_view what, Make&& make) {
  try {
    return make();
  } catch (const std::invalid_argument& e) {
    std::string given;
    for (const std::string_view key : keys) {
      const auto it = args.entries().find(std::string(key));
      if (it == args.entries().end()) continue;
      given += (given.empty() ? "" : ", ") + it->first + "=" + it->second;
    }
    usage_error(program, "no valid " + std::string(what) + " from " +
                             (given.empty() ? "the defaults" : given) + ": " +
                             e.what());
  }
}

/// Whether this run should record sim trace events: a trace= export wants
/// them, and so does a telemetry stream (they are its "ev" payload). A
/// traced controller run records its channels, exports
/// kDefaultCounterChannels (plus the bench's own) as counter tracks and
/// emits DecisionRecords (obs/decision.h), all into its own lane.
inline bool tracing_enabled(const Config& args) {
  return !args.get_string("trace", "").empty() ||
         !args.get_string("telemetry", "").empty();
}

/// Worker threads for the sweep runner (threads=<n>; 0 = all hardware).
inline std::size_t bench_threads(const Config& args) {
  return args.get_count("threads", 0);
}

/// Parses shard=<i>/<N> ("0/4" .. "3/4"). Aborts on malformed values.
inline exp::Shard parse_shard(const std::string& text) {
  exp::Shard shard;
  unsigned long index = 0;
  unsigned long count = 0;
  char trailing = '\0';
  if (std::sscanf(text.c_str(), "%lu/%lu%c", &index, &count, &trailing) != 2 ||
      count == 0 || index >= count) {
    std::cerr << "error: shard must be i/N with 0 <= i < N, got '" << text
              << "'\n";
    std::exit(2);
  }
  shard.index = static_cast<std::size_t>(index);
  shard.count = static_cast<std::size_t>(count);
  return shard;
}

/// The default experiment configuration: the paper's data center at its
/// full 909 PDUs, so absolute columns (MW, MWh) describe the paper's
/// facility. The plant is one weighted PDU group, so a run costs the same
/// at any `pdus=`, and normalized results agree across counts to rounding
/// (see core/datacenter.h).
inline core::DataCenterConfig bench_config(const Config& args) {
  core::DataCenterConfig config;
  config.fleet.pdu_count = args.get_count("pdus", 909);
  config.dc_headroom = args.get_double("dc_headroom", 0.10);
  config.pue = args.get_double("pue", 1.53);
  return config;
}

/// Reads a bench's arguments: the common keys plus `extra` (read_args).
/// The data-center keys must also give a valid data center, shard= a valid
/// slice, and at most one of trace= and telemetry= may be set; anything
/// else is the same usage error, before any run.
inline Config parse_args(int argc, char** argv,
                         std::initializer_list<Key> extra = {}) {
  std::vector<Key> keys(std::begin(kCommonKeys), std::end(kCommonKeys));
  keys.insert(keys.end(), extra.begin(), extra.end());
  const Config args = read_args(argc, argv, keys);
  checked(argv[0], args, {"pdus", "dc_headroom", "pue"}, "data center",
          [&] { bench_config(args).validate(); });
  const std::string shard = args.get_string("shard", "");
  if (!shard.empty()) (void)parse_shard(shard);
  if (!args.get_string("trace", "").empty() &&
      !args.get_string("telemetry", "").empty()) {
    usage_error(argv[0],
                "trace= and telemetry= both given: a run streams one sink "
                "(the telemetry stream holds the trace's lines)");
  }
  return args;
}

/// Worker-mode drain contract (dispatcher-initiated kills, Ctrl-C on a
/// checkpointed run). SIGTERM/SIGINT set `shutdown_requested`; the sweep
/// runner stops picking up new tasks and finishes (and checkpoints) the
/// in-flight ones, the bench's normal tail then finalizes the stream
/// sinks (finish_obs), and `drain_exit_if_requested` — the last line of
/// every sweep bench — exits 128+signal so a supervisor can never mistake
/// the partial run for a complete shard. A second signal exits immediately.
inline std::atomic<bool>& shutdown_requested() {
  static std::atomic<bool> requested{false};
  return requested;
}

inline std::atomic<int>& shutdown_signal() {
  static std::atomic<int> signal_number{0};
  return signal_number;
}

namespace detail {
inline void drain_signal_handler(int sig) {
  // Async-signal-safe: lock-free atomic stores only. The actual flushing
  // already happened — checkpoint rows are flushed as written, and the
  // stream sinks only ever write whole lines and packets.
  if (shutdown_requested().exchange(true)) ::_exit(128 + sig);
  shutdown_signal().store(sig);
}
}  // namespace detail

/// Installs the SIGTERM/SIGINT drain handlers (idempotent). Benches enter
/// worker mode automatically when checkpoint= is given — see
/// runner_options — because that is when a drained run is resumable.
inline void install_drain_handlers() {
  struct sigaction action = {};
  action.sa_handler = detail::drain_signal_handler;
  ::sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;  // keep checkpoint writes EINTR-free
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
}

/// Sweep-runner options for one spec: threads=<n>, plus checkpoint=<dir>
/// (the resume file lands at <dir>/<sweep>.ckpt.jsonl, one per sweep so
/// multi-sweep benches keep their grids apart) and shard=<i>/<N> (each
/// sweep of the bench is sliced the same way). A checkpointed bench runs in
/// worker mode: drain signals stop the sweep cleanly instead of killing it.
inline exp::RunnerOptions runner_options(const Config& args,
                                         const exp::SweepSpec& spec) {
  exp::RunnerOptions options;
  options.threads = bench_threads(args);
  const std::string dir = args.get_string("checkpoint", "");
  if (!dir.empty()) {
    options.checkpoint_path = dir + "/" + spec.name() + ".ckpt.jsonl";
    install_drain_handlers();
  }
  options.stop = &shutdown_requested();
  const std::string shard = args.get_string("shard", "");
  if (!shard.empty()) options.shard = parse_shard(shard);
  return options;
}

/// Worker-mode exit-status contract: call as the last statement of a sweep
/// bench's main(). No-op when no drain signal arrived; after a drain it
/// flushes the standard streams and exits 128+signal (143 for SIGTERM), so
/// exit 0 always means "my shard slice is complete in the checkpoint".
inline void drain_exit_if_requested() {
  if (!shutdown_requested().load()) return;
  const int sig = shutdown_signal().load();
  std::cerr << "[bench] drained after signal " << sig
            << "; checkpoint is resumable\n";
  std::cout.flush();
  std::cerr.flush();
  std::exit(128 + (sig == 0 ? SIGTERM : sig));
}

/// Metric `m` of task `index`, or NaN when the slot was not executed (a
/// sharded run printed before its shards merge). Keeps the partial console
/// tables rendering without touching complete runs.
inline double row_value(const exp::SweepRun& run, std::size_t index,
                        std::size_t m) {
  return index < run.rows.size() && m < run.rows[index].size()
             ? run.rows[index][m]
             : std::numeric_limits<double>::quiet_NaN();
}

/// Writes a time series as CSV ("time_s,value") under csv=<dir> if given.
inline void maybe_export_csv(const Config& args, const std::string& name,
                             const TimeSeries& series) {
  const std::string dir = args.get_string("csv", "");
  if (dir.empty()) return;
  exp::export_time_series_csv(dir, name, series, &std::cout);
}

/// Sweep reporting glue: rows/summary CSV + JSON under csv=<dir>, and a
/// BENCH_<sweep>.json perf record (wall time, runs/sec, threads) under
/// perf=<dir>. When the profiler is on (see obs_setup), the perf record
/// also carries its per-name scope totals and folded stacks, with
/// `<sweep>_stacks.folded` next to it. The profiler's totals cover the
/// whole process up to this export, not only this sweep.
inline void maybe_export_sweep(const Config& args, const exp::SweepSpec& spec,
                               const exp::SweepRun& run,
                               const exp::SweepSummary& summary) {
  const std::string csv_dir = args.get_string("csv", "");
  if (!csv_dir.empty()) exp::export_sweep(csv_dir, spec, run, summary, &std::cout);
  const std::string perf_dir = args.get_string("perf", "");
  if (!perf_dir.empty()) {
    const obs::ScopePaths paths = obs::Profiler::instance().collect().paths;
    const obs::ProfileSummary scopes = obs::summarize_names(paths);
    const obs::FoldedStacks folded = obs::folded_stacks(paths);
    exp::export_perf_record(perf_dir, summary, &std::cout, &scopes, &folded);
  }
}

/// The streaming sink of one bench run: under trace=<dir>, the JSONL trace
/// `<dir>/<name>_trace.jsonl` (the run's one trace encoding; `trace_query
/// perfetto` renders it to `<name>_trace.perfetto` afterwards); under
/// telemetry=<path> (appended by dispatch_sweep --telemetry), the worker
/// telemetry stream, the same lines under a header that is on disk as soon
/// as it opens. A run gives at most one of the two keys (parse_args).
/// Memory stays bounded whatever the trace length. With neither key the
/// struct is inactive and sink() is null, so `obs::Tracer
/// tracer(stream.sink())` buffers nothing a bench does not trace.
struct StreamTraceSinks {
  std::unique_ptr<obs::JsonlStreamSink> jsonl;
  /// `jsonl` when it is the telemetry stream, else null.
  obs::TelemetrySink* telemetry = nullptr;

  [[nodiscard]] bool active() const noexcept { return jsonl != nullptr; }
  [[nodiscard]] obs::TraceSink* sink() const noexcept { return jsonl.get(); }

  /// Finalizes the sink, then reports "[obs] streamed N events to <path>"
  /// (or "[obs] cannot write <path>") for the JSONL trace on `diag`.
  void finalize(std::ostream* diag = nullptr) {
    if (!active()) return;
    jsonl->finalize();
    if (diag == nullptr || telemetry != nullptr) return;
    if (jsonl->ok()) {
      *diag << "[obs] streamed " << jsonl->events_written() << " events to "
            << jsonl->path() << "\n";
    } else {
      *diag << "[obs] cannot write " << jsonl->path() << "\n";
    }
  }
};

/// Opens the sink trace= or telemetry= asks for (see StreamTraceSinks).
inline StreamTraceSinks maybe_stream_sinks(const Config& args,
                                           const std::string& name) {
  StreamTraceSinks sinks;
  const std::string trace_dir = args.get_string("trace", "");
  const std::string telemetry = args.get_string("telemetry", "");
  if (!trace_dir.empty()) {
    sinks.jsonl = std::make_unique<obs::JsonlStreamSink>(
        trace_dir + "/" + name + "_trace.jsonl");
  } else if (!telemetry.empty()) {
    auto stream = std::make_unique<obs::TelemetrySink>(
        telemetry, obs::TelemetryOptions{
                       .name = name, .shard = args.get_string("shard", "")});
    if (!stream->ok()) {
      std::cerr << "[obs] cannot write telemetry stream " << telemetry
                << "\n";
    }
    sinks.telemetry = stream.get();
    sinks.jsonl = std::move(stream);
  }
  return sinks;
}

/// The observability setup step, once near the top of main() before any
/// run: turns the wall-clock profiler on when trace= or telemetry= is
/// given (tracing_enabled), and opens the run's streaming sink. A traced
/// bench then builds `obs::Tracer tracer(stream.sink())`; finish_obs is
/// the matching last step.
[[nodiscard]] inline StreamTraceSinks obs_setup(const Config& args,
                                                const std::string& name) {
  if (tracing_enabled(args)) obs::Profiler::instance().set_enabled(true);
  return maybe_stream_sinks(args, name);
}

/// The observability finish step, after the bench's last run: appends the
/// profiler's wall spans and scope path totals to the stream
/// (obs::export_to, through a wall-only tracer over the sink), then the
/// telemetry stream's folded stacks, then finalizes the sink, reporting
/// the trace file on stdout.
inline void finish_obs(StreamTraceSinks& stream) {
  if (!stream.active()) return;
  const obs::Profile profile = obs::Profiler::instance().collect();
  obs::Tracer wall(stream.sink());
  obs::export_to(wall, profile);
  if (stream.telemetry != nullptr) {
    stream.telemetry->write_stacks(obs::folded_stacks(profile.paths));
  }
  stream.finalize(&std::cout);
}

}  // namespace dcs::bench
