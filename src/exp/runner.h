// The sweep runner: expands a SweepSpec and executes one task per grid point
// across the thread pool, collecting metric rows in task order.
//
// Determinism: the runner only schedules; tasks receive their Task (levels,
// replicate, seed) and must build all mutable state themselves (for
// simulation sweeps, a fresh DataCenter per task — DataCenter::run already
// builds fresh plant state per call). Rows are written into pre-sized
// task-indexed slots, so the collected result is bit-identical for any
// thread count.
//
// Durability and partitioning: `RunnerOptions::checkpoint_path` append-
// streams every completed row to a crash-safe JSONL checkpoint and, on
// restart, re-runs only the task indices the file does not already cover.
// `RunnerOptions::shard` restricts execution to a contiguous slice of the
// task range so N processes (or machines) can split one grid; their
// checkpoint files merge back into the full task-indexed run with
// exp::merge_runs / tools/merge_sweep. Both rely on the stable task->seed
// mapping of SweepSpec: a slot computes the same row no matter which
// process (or which attempt) executes it. The checkpoint is also how a
// supervisor watches a worker: exp/dispatch.h reads a shard's progress as
// the rows its checkpoint files hold inside the shard's slice.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "exp/sweep.h"

namespace dcs::exp {

/// One contiguous slice of a sweep's task range: shard `index` of `count`.
/// The default {0, 1} is the whole range.
struct Shard {
  std::size_t index = 0;
  std::size_t count = 1;
};

/// Task-index range [first, last) owned by `shard` out of `task_count`
/// tasks. Slices are contiguous, disjoint, cover the range, and differ in
/// size by at most one task. DCS_REQUIRE on index >= count or count == 0.
[[nodiscard]] std::pair<std::size_t, std::size_t> shard_range(
    std::size_t task_count, const Shard& shard);

struct RunnerOptions {
  /// Worker threads; 0 = all hardware threads.
  std::size_t threads = 0;
  /// When non-empty: load completed rows from this JSONL checkpoint before
  /// running (skipping their slots) and append every newly completed row to
  /// it, so a killed sweep resumes instead of restarting.
  std::string checkpoint_path;
  /// Restrict execution to this shard's contiguous task-index slice.
  Shard shard;
  /// Cooperative drain: when non-null and set (e.g. by a SIGTERM handler),
  /// workers stop picking up new tasks; tasks already started finish —
  /// and checkpoint — normally. The run returns with `drained == true` and
  /// the unexecuted slots empty, leaving a resumable checkpoint behind.
  const std::atomic<bool>* stop = nullptr;
};

/// Raw sweep output: one row of metric values per task, in task order.
/// Slots outside the executed shard (or not yet covered by any checkpoint)
/// hold empty rows.
struct SweepRun {
  std::vector<std::string> metrics;
  std::vector<std::vector<double>> rows;
  std::size_t threads_used = 1;
  double wall_seconds = 0.0;
  /// Tasks actually executed by this process (excludes checkpoint-resumed
  /// slots and slots outside the shard).
  std::size_t executed_tasks = 0;
  /// Completed rows adopted from the checkpoint instead of re-run.
  std::size_t resumed_tasks = 0;
  /// Provenance of the executed slice (shard_count == 1: whole range).
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  /// True when RunnerOptions::stop cut the run short; some slots in the
  /// shard's slice were skipped and remain empty.
  bool drained = false;

  [[nodiscard]] double tasks_per_second() const noexcept {
    return wall_seconds > 0.0
               ? static_cast<double>(executed_tasks) / wall_seconds
               : 0.0;
  }
};

/// One sweep task: returns one value per declared metric.
using TaskFn = std::function<std::vector<double>(const SweepSpec::Task&)>;

/// Runs every task of `spec` (restricted to `options.shard`, minus slots
/// already covered by `options.checkpoint_path`) and collects the metric
/// rows. Throws (after attempting every task) if any task throws or returns
/// the wrong number of metrics.
[[nodiscard]] SweepRun run_sweep(const SweepSpec& spec,
                                 std::vector<std::string> metrics,
                                 const TaskFn& fn,
                                 const RunnerOptions& options = {});

}  // namespace dcs::exp
