// Wall-clock profiling scopes: exact totals per scope path.
//
// DCS_OBS_SCOPE("name") times the enclosing block and adds its duration to
// the calling thread's (count, total, min, max) entry for its *scope
// path*: the chain of enclosing scope names on that thread, under the
// thread's lane. Threads identify themselves with a lane (main thread 0;
// exp::parallel_for workers register 1..N), so a sweep's
// totals read per worker: lane 1's "exp.task;sim.run;controller.step" is
// every controller step that worker ran inside a sweep task. A per-tick
// scope therefore costs two clock reads and one uncontended lock, and
// records no event.
//
// DCS_OBS_SPAN("name") does the same and also records the call as one
// wall-clock span event. Only the coarse call sites are spans — a sweep
// task (`exp.task`), an oracle candidate (`oracle.candidate`) and a run
// (`sim.run`) — so a Perfetto trace shows the sweep's parallelism without
// one event per control period.
//
// The path tables and span buffers belong to the process singleton, so a
// worker thread that exits before collect() keeps its totals. collect()
// merges them deterministically — spans sorted by (lane, start,
// longest-span-first), paths keyed by (lane, path) — so the *structure* of
// every consumer's output depends only on the recorded data. The durations
// are wall clock and belong in perf records and trace files only;
// simulation results must never depend on them (DESIGN.md
// "Observability").
//
// The profiler is disabled by default; a disabled scope is one relaxed
// atomic load.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace dcs::obs {

/// One finished span (a DCS_OBS_SPAN call).
struct ProfileEvent {
  /// Scope name; must point at storage outliving the profiler use (string
  /// literals — the DCS_OBS_SCOPE contract).
  const char* name = nullptr;
  std::uint32_t lane = 0;
  double start_us = 0.0;
  double dur_us = 0.0;
};

/// Wall-clock totals of one scope path, or of one name over every path.
struct ScopeStats {
  std::size_t count = 0;
  double total_us = 0.0;
  double min_us = 0.0;
  double max_us = 0.0;
  [[nodiscard]] double mean_us() const noexcept {
    return count > 0 ? total_us / static_cast<double>(count) : 0.0;
  }
};

/// Scope path totals keyed by (lane, "outer;inner"), in key order.
using ScopePaths =
    std::map<std::pair<std::uint32_t, std::string>, ScopeStats>;

/// Per-name totals for BENCH_*.json perf records.
using ProfileSummary = std::map<std::string, ScopeStats>;

/// Folded flame-graph stacks: "lane;outer;inner" -> self time in whole
/// microseconds. Feed the textual form (write_folded) straight to
/// flamegraph.pl / speedscope.
using FoldedStacks = std::map<std::string, std::size_t>;

/// What the profiler holds at one moment (Profiler::collect).
struct Profile {
  /// Finished spans in (lane, start_us, dur_us desc) order.
  std::vector<ProfileEvent> spans;
  /// Path totals with at least one finished call.
  ScopePaths paths;
  /// Wall microseconds at collection: the summary events' timestamp.
  double at_us = 0.0;
};

class Profiler {
 public:
  static Profiler& instance();

  void set_enabled(bool enabled) noexcept;
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Sets the calling thread's lane (sticky thread-local; main = 0).
  static void set_thread_lane(std::uint32_t lane) noexcept;

  /// Wall microseconds since the process-wide profiler epoch.
  [[nodiscard]] double now_us() const noexcept;

  /// Unix microseconds (system clock) at the profiler epoch — the anchor
  /// that lets cross-process merges (exp/timeline.h) place each process's
  /// wall events on one shared timeline: a wall event at ts_us in process P
  /// happened at absolute time P.epoch_unix_us() + ts_us. Captured once at
  /// construction together with the steady-clock epoch.
  [[nodiscard]] std::int64_t epoch_unix_us() const noexcept {
    return epoch_unix_us_;
  }

  /// Opens scope `name` under the calling thread's innermost open scope
  /// (or under its lane when none is open) and returns the path entry to
  /// hand back to leave().
  [[nodiscard]] std::uint32_t enter(const char* name);
  /// Closes the scope enter() opened: adds `dur_us` to its path entry and
  /// makes the entry's parent the innermost open scope again.
  void leave(std::uint32_t entry, double dur_us);

  /// Records one finished span into the calling thread's buffer.
  void record(const char* name, double start_us, double dur_us);

  /// Copies every span and path total. Does not clear; pair with reset()
  /// between runs.
  [[nodiscard]] Profile collect() const;
  /// Drops every span and zeroes every path total.
  void reset();

 private:
  Profiler();

  struct ThreadTable;
  ThreadTable& local_table();

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  std::int64_t epoch_unix_us_ = 0;
  mutable std::mutex mu_;  // guards tables_ (registration, collect, reset)
  std::vector<std::unique_ptr<ThreadTable>> tables_;
};

/// RAII timer behind DCS_OBS_SCOPE and DCS_OBS_SPAN. `name` must be a
/// string literal.
class ScopeTimer {
 public:
  ScopeTimer(const char* name, bool span) noexcept {
    Profiler& p = Profiler::instance();
    if (!p.enabled()) return;
    name_ = name;
    span_ = span;
    entry_ = p.enter(name);
    start_us_ = p.now_us();
  }
  ~ScopeTimer() {
    if (name_ == nullptr) return;
    Profiler& p = Profiler::instance();
    const double dur_us = p.now_us() - start_us_;
    p.leave(entry_, dur_us);
    if (span_) p.record(name_, start_us_, dur_us);
  }
  ScopeTimer(const ScopeTimer&) = delete;
  ScopeTimer& operator=(const ScopeTimer&) = delete;

 private:
  const char* name_ = nullptr;
  bool span_ = false;
  std::uint32_t entry_ = 0;
  double start_us_ = 0.0;
};

/// Sums each scope name over every path and lane.
[[nodiscard]] ProfileSummary summarize_names(const ScopePaths& paths);

/// Folds path totals into flame-graph stacks keyed "lane;outer;inner",
/// each valued at its self time: the path's total minus its children's
/// totals, rounded to whole microseconds.
[[nodiscard]] FoldedStacks folded_stacks(const ScopePaths& paths);

/// Writes folded stacks in the textual flame-graph format, one
/// "stack value" line per entry, sorted by stack (map order).
void write_folded(std::ostream& out, const FoldedStacks& folded);

/// Appends the profile to `tracer` as wall-domain events: each span as an
/// 'X' event (cat "profile"), then one instant (cat "scope", named by the
/// path joined with ';', args count / total_us / min_us / max_us) per
/// (lane, path). Lanes are named "main" / "worker-<lane>".
void export_to(Tracer& tracer, const Profile& profile);

}  // namespace dcs::obs

#define DCS_OBS_CONCAT_INNER(a, b) a##b
#define DCS_OBS_CONCAT(a, b) DCS_OBS_CONCAT_INNER(a, b)
/// Adds the enclosing scope's wall time to its scope path's totals under
/// `name` (a string literal) when the process-wide Profiler is enabled.
#define DCS_OBS_SCOPE(name) \
  ::dcs::obs::ScopeTimer DCS_OBS_CONCAT(dcs_obs_scope_, __LINE__)(name, false)
/// DCS_OBS_SCOPE that also records the call as a span event: for coarse
/// call sites only (a sweep task, a run), never per tick.
#define DCS_OBS_SPAN(name) \
  ::dcs::obs::ScopeTimer DCS_OBS_CONCAT(dcs_obs_scope_, __LINE__)(name, true)
