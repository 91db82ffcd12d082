#include "exp/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <utility>

#include "exp/checkpoint.h"
#include "exp/thread_pool.h"
#include "obs/profile.h"
#include "util/check.h"

namespace dcs::exp {

std::pair<std::size_t, std::size_t> shard_range(std::size_t task_count,
                                                const Shard& shard) {
  DCS_REQUIRE(shard.count >= 1, "shard count must be >= 1");
  DCS_REQUIRE(shard.index < shard.count,
              "shard index " + std::to_string(shard.index) +
                  " out of range for " + std::to_string(shard.count) +
                  " shards");
  // i*n/k boundaries: contiguous, disjoint, covering, sizes within one.
  const std::size_t first = shard.index * task_count / shard.count;
  const std::size_t last = (shard.index + 1) * task_count / shard.count;
  return {first, last};
}

SweepRun run_sweep(const SweepSpec& spec, std::vector<std::string> metrics,
                   const TaskFn& fn, const RunnerOptions& options) {
  DCS_REQUIRE(!metrics.empty(), "a sweep needs at least one metric");
  DCS_REQUIRE(fn != nullptr, "a sweep needs a task function");
  const std::vector<SweepSpec::Task> tasks = spec.tasks();

  SweepRun run;
  run.metrics = std::move(metrics);
  run.rows.assign(tasks.size(), {});
  run.shard_index = options.shard.index;
  run.shard_count = options.shard.count;
  const auto [first, last] = shard_range(tasks.size(), options.shard);

  // Resume: adopt the checkpoint's completed rows (anywhere in the range,
  // so a merged multi-shard checkpoint replays in one process) and only
  // schedule the shard's uncovered slots.
  std::vector<std::size_t> pending;
  std::unique_ptr<CheckpointWriter> checkpoint;
  if (!options.checkpoint_path.empty()) {
    const CheckpointData data = load_checkpoint(options.checkpoint_path);
    if (data.present) {
      require_matches(data, spec, run.metrics);
      for (const auto& [index, row] : data.rows) run.rows[index] = row;
      run.resumed_tasks = data.rows.size();
    }
    for (std::size_t i = first; i < last; ++i) {
      if (run.rows[i].empty()) pending.push_back(i);
    }
    checkpoint = std::make_unique<CheckpointWriter>(options.checkpoint_path,
                                                    spec, run.metrics);
    DCS_REQUIRE(checkpoint->ok(),
                "cannot write checkpoint " + options.checkpoint_path);
  } else {
    pending.reserve(last - first);
    for (std::size_t i = first; i < last; ++i) pending.push_back(i);
  }

  run.threads_used =
      std::min(resolve_threads(options.threads),
               std::max<std::size_t>(pending.size(), 1));

  std::atomic<std::size_t> executed{0};
  const auto start = std::chrono::steady_clock::now();
  parallel_for(pending.size(), options.threads, [&](std::size_t p) {
    // Cooperative drain (SIGTERM from a dispatcher, Ctrl-C): slots not yet
    // started are skipped; the checkpoint keeps every finished row, so a
    // resumed run re-executes exactly the skipped slots.
    if (options.stop != nullptr &&
        options.stop->load(std::memory_order_relaxed)) {
      return;
    }
    DCS_OBS_SPAN("exp.task");
    const std::size_t i = pending[p];
    std::vector<double> row = fn(tasks[i]);
    DCS_REQUIRE(row.size() == run.metrics.size(),
                "sweep '" + spec.name() + "' task " + std::to_string(i) +
                    " returned " + std::to_string(row.size()) +
                    " metrics, expected " +
                    std::to_string(run.metrics.size()));
    if (checkpoint != nullptr) checkpoint->append(i, tasks[i].seed, row);
    run.rows[i] = std::move(row);
    executed.fetch_add(1, std::memory_order_relaxed);
  });
  run.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  run.executed_tasks = executed.load();
  run.drained = options.stop != nullptr &&
                options.stop->load(std::memory_order_relaxed) &&
                run.executed_tasks < pending.size();
  return run;
}

}  // namespace dcs::exp
