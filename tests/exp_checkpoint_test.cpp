#include "exp/checkpoint.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/reporter.h"
#include "exp/runner.h"
#include "exp/sweep.h"

namespace dcs::exp {
namespace {

SweepSpec small_spec() {
  SweepSpec spec("ckpt_unit", /*base_seed=*/0xC4EC4EULL);
  spec.add_axis("strategy", {"a", "b"});
  spec.add_axis("severity", std::vector<double>{0.5, 1.0, 1.5}, 1);
  spec.set_replicates(2);
  return spec;
}

/// Deterministic task function keyed on the task seed, with a call counter
/// so tests can assert how many slots actually executed.
std::vector<double> seed_row(const SweepSpec::Task& task) {
  const double x = static_cast<double>(task.seed % 1000) / 7.0;
  return {static_cast<double>(task.index), x};
}

std::string unique_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::string rows_csv(const SweepSpec& spec, const SweepRun& run) {
  std::ostringstream out;
  write_rows_csv(out, spec, run);
  return out.str();
}

TEST(ExpCheckpoint, ShardRangePartitionsTasks) {
  for (const std::size_t n : {0u, 1u, 5u, 12u, 13u}) {
    for (const std::size_t k : {1u, 2u, 3u, 4u, 7u}) {
      std::size_t covered = 0;
      std::size_t prev_last = 0;
      std::size_t min_size = n;
      std::size_t max_size = 0;
      for (std::size_t i = 0; i < k; ++i) {
        const auto [first, last] = shard_range(n, {i, k});
        EXPECT_EQ(first, prev_last) << "shards must tile contiguously";
        EXPECT_LE(first, last);
        prev_last = last;
        covered += last - first;
        min_size = std::min(min_size, last - first);
        max_size = std::max(max_size, last - first);
      }
      EXPECT_EQ(prev_last, n);
      EXPECT_EQ(covered, n);
      EXPECT_LE(max_size - min_size, 1u) << "shard sizes must differ by <= 1";
    }
  }
  EXPECT_THROW((void)shard_range(10, {0, 0}), std::invalid_argument);
  EXPECT_THROW((void)shard_range(10, {3, 3}), std::invalid_argument);
}

TEST(ExpCheckpoint, RoundTripsRowsIncludingNonFinite) {
  SweepSpec spec("ckpt_nonfinite", 9);
  spec.add_axis("x", std::vector<double>{1.0, 2.0}, 0);
  const std::vector<std::string> metrics = {"a", "b", "c"};
  const std::string path = unique_path("ckpt_nonfinite.jsonl");
  std::remove(path.c_str());

  const std::vector<SweepSpec::Task> tasks = spec.tasks();
  const std::vector<double> row0 = {0.1 + 0.2,  // not exactly 0.3
                                    std::numeric_limits<double>::infinity(),
                                    std::numeric_limits<double>::quiet_NaN()};
  const std::vector<double> row1 = {
      -std::numeric_limits<double>::infinity(), 1e-301, -0.0};
  {
    CheckpointWriter writer(path, spec, metrics);
    ASSERT_TRUE(writer.ok());
    writer.append(0, tasks[0].seed, row0);
    writer.append(1, tasks[1].seed, row1);
  }

  const CheckpointData data = load_checkpoint(path);
  ASSERT_TRUE(data.present);
  EXPECT_TRUE(data.complete());
  EXPECT_EQ(data.sweep, "ckpt_nonfinite");
  EXPECT_EQ(data.base_seed, 9u);
  EXPECT_EQ(data.metrics, metrics);
  ASSERT_EQ(data.rows.size(), 2u);
  for (std::size_t m = 0; m < metrics.size(); ++m) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(data.rows.at(0)[m]),
              std::bit_cast<std::uint64_t>(row0[m]))
        << "row 0 metric " << m << " must round-trip bit-for-bit";
    EXPECT_EQ(std::bit_cast<std::uint64_t>(data.rows.at(1)[m]),
              std::bit_cast<std::uint64_t>(row1[m]))
        << "row 1 metric " << m << " must round-trip bit-for-bit";
  }
  EXPECT_EQ(data.seeds.at(0), tasks[0].seed);
  std::remove(path.c_str());
}

TEST(ExpCheckpoint, MissingFileIsAFreshStart) {
  const CheckpointData data =
      load_checkpoint(unique_path("ckpt_never_written.jsonl"));
  EXPECT_FALSE(data.present);
  EXPECT_FALSE(data.complete());
}

TEST(ExpCheckpoint, EmptyFileIsAFreshStart) {
  // A worker killed between open() and the header flush leaves a zero-byte
  // file; it must read as absent and the next attempt must start clean.
  const std::string path = unique_path("empty.ckpt.jsonl");
  { std::ofstream out(path); }
  const CheckpointData data = load_checkpoint(path);
  EXPECT_FALSE(data.present);
  EXPECT_TRUE(data.rows.empty());

  const SweepSpec spec = small_spec();
  const SweepRun resumed = run_sweep(spec, {"index", "x"}, seed_row,
                                     {.threads = 2, .checkpoint_path = path});
  EXPECT_EQ(resumed.executed_tasks, spec.task_count());
  EXPECT_TRUE(load_checkpoint(path).complete());
  std::remove(path.c_str());
}

TEST(ExpCheckpoint, HeaderOnlyFileIsPresentWithZeroRows) {
  // Killed after the header flush but before any row: the fingerprint
  // survives, the row set is empty, and nothing throws.
  const SweepSpec spec = small_spec();
  const std::string path = unique_path("header_only.ckpt.jsonl");
  {
    CheckpointWriter writer(path, spec, {"index", "x"});
    ASSERT_TRUE(writer.ok());
  }
  const CheckpointData data = load_checkpoint(path);
  EXPECT_TRUE(data.present);
  EXPECT_EQ(data.sweep, spec.name());
  EXPECT_TRUE(data.rows.empty());
  EXPECT_FALSE(data.complete());

  const SweepRun resumed = run_sweep(spec, {"index", "x"}, seed_row,
                                     {.threads = 2, .checkpoint_path = path});
  EXPECT_EQ(resumed.executed_tasks, spec.task_count());
  std::remove(path.c_str());
}

TEST(ExpCheckpoint, OutOfRangeNumbersStopTheRowsOrRejectTheHeader) {
  const std::string path = unique_path("ckpt_out_of_range.jsonl");
  const auto header = [](const std::string& task_count) {
    return "{\"checkpoint\": \"s\", \"version\": 1, \"base_seed\": \"7\", "
           "\"task_count\": " + task_count + ", \"metrics\": [\"x\"]}\n";
  };
  const auto row = [](const std::string& index) {
    return "{\"index\": " + index + ", \"seed\": \"1\", \"row\": [2.5]}\n";
  };
  // A damaged index is a torn row: the rows before it load, and it and
  // every row after it are dropped.
  for (const char* bad : {"-1", "1e999", "0.5"}) {
    { std::ofstream(path) << header("4") << row("0") << row(bad) << row("1"); }
    const CheckpointData data = load_checkpoint(path);
    EXPECT_EQ(data.task_count, 4u) << bad;
    ASSERT_EQ(data.rows.size(), 1u) << bad;
    EXPECT_EQ(data.rows.count(0), 1u) << bad;
  }
  // A damaged task count is a header error.
  for (const char* bad : {"-1", "1e999", "2.5"}) {
    { std::ofstream(path) << header(bad) << row("0"); }
    EXPECT_THROW((void)load_checkpoint(path), std::invalid_argument) << bad;
  }
  std::remove(path.c_str());
}

TEST(ExpCheckpoint, AtomicWriteRoundTripsAndNeverLeavesTemp) {
  const SweepSpec spec = small_spec();
  // threads=1 so the incremental writer appends in index order, matching
  // the index-sorted order write_checkpoint_atomic emits.
  const std::string direct = unique_path("atomic_direct.ckpt.jsonl");
  (void)run_sweep(spec, {"index", "x"}, seed_row,
                  {.threads = 1, .checkpoint_path = direct});
  const CheckpointData data = load_checkpoint(direct);

  const std::string atomic = unique_path("atomic_out.ckpt.jsonl");
  ASSERT_TRUE(write_checkpoint_atomic(atomic, data));
  // Identical bytes to the plain writer, and the staging file is gone.
  std::ifstream a(direct), b(atomic);
  std::ostringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
  EXPECT_FALSE(std::ifstream(atomic + ".tmp").good());

  // An unwritable destination reports failure instead of throwing.
  EXPECT_FALSE(
      write_checkpoint_atomic(unique_path("no_such_dir/x.ckpt.jsonl"), data));
  std::remove(direct.c_str());
  std::remove(atomic.c_str());
}

TEST(ExpCheckpoint, ResumeExecutesOnlyMissingSlots) {
  const SweepSpec spec = small_spec();
  const std::string path = unique_path("ckpt_resume.jsonl");
  std::remove(path.c_str());

  // First attempt dies after writing a partial checkpoint: simulate by
  // checkpointing only shard 0 of 2 (the first half of the grid).
  std::atomic<std::size_t> calls{0};
  const auto counted = [&](const SweepSpec::Task& task) {
    calls.fetch_add(1);
    return seed_row(task);
  };
  const auto [first, last] = shard_range(spec.task_count(), {0, 2});
  (void)run_sweep(spec, {"index", "x"}, counted,
                  {.threads = 2, .checkpoint_path = path, .shard = {0, 2}});
  EXPECT_EQ(calls.load(), last - first);

  // The resumed full run executes only the slots the checkpoint lacks.
  calls.store(0);
  const SweepRun resumed = run_sweep(spec, {"index", "x"}, counted,
                                     {.threads = 2, .checkpoint_path = path});
  EXPECT_EQ(calls.load(), spec.task_count() - (last - first));
  EXPECT_EQ(resumed.resumed_tasks, last - first);
  EXPECT_EQ(resumed.executed_tasks, spec.task_count() - (last - first));

  // And is byte-identical to an uninterrupted run without any checkpoint.
  const SweepRun clean =
      run_sweep(spec, {"index", "x"}, seed_row, {.threads = 2});
  EXPECT_EQ(rows_csv(spec, resumed), rows_csv(spec, clean));

  // A third run over the now-complete checkpoint executes nothing.
  calls.store(0);
  const SweepRun replay = run_sweep(spec, {"index", "x"}, counted,
                                    {.threads = 2, .checkpoint_path = path});
  EXPECT_EQ(calls.load(), 0u);
  EXPECT_EQ(replay.executed_tasks, 0u);
  EXPECT_EQ(replay.resumed_tasks, spec.task_count());
  EXPECT_EQ(rows_csv(spec, replay), rows_csv(spec, clean));
  std::remove(path.c_str());
}

TEST(ExpCheckpoint, ToleratesTornTrailingLine) {
  const SweepSpec spec = small_spec();
  const std::string path = unique_path("ckpt_torn.jsonl");
  std::remove(path.c_str());

  (void)run_sweep(spec, {"index", "x"}, seed_row,
                  {.threads = 1, .checkpoint_path = path, .shard = {0, 2}});
  {
    // A kill mid-append leaves a truncated final line.
    std::ofstream out(path, std::ios::app);
    out << "{\"index\": 9, \"seed\": \"123\", \"row\": [1.0,";
  }
  const CheckpointData data = load_checkpoint(path);
  ASSERT_TRUE(data.present);
  const auto [first, last] = shard_range(spec.task_count(), {0, 2});
  EXPECT_EQ(data.rows.size(), last - first)
      << "the torn line must be dropped, not parsed";
  EXPECT_EQ(data.rows.count(9), 0u);

  // Resume re-runs the torn slot along with the rest.
  const SweepRun resumed = run_sweep(spec, {"index", "x"}, seed_row,
                                     {.threads = 2, .checkpoint_path = path});
  const SweepRun clean =
      run_sweep(spec, {"index", "x"}, seed_row, {.threads = 2});
  EXPECT_EQ(rows_csv(spec, resumed), rows_csv(spec, clean));
  std::remove(path.c_str());
}

TEST(ExpCheckpoint, ShardedRunsMergeByteIdenticalToUnsharded) {
  const SweepSpec spec = small_spec();
  const SweepRun clean =
      run_sweep(spec, {"index", "x"}, seed_row, {.threads = 2});

  const std::size_t kShards = 3;
  std::vector<CheckpointData> shards;
  for (std::size_t i = 0; i < kShards; ++i) {
    const std::string path =
        unique_path("ckpt_shard" + std::to_string(i) + ".jsonl");
    std::remove(path.c_str());
    const SweepRun shard_run = run_sweep(
        spec, {"index", "x"}, seed_row,
        {.threads = 2, .checkpoint_path = path, .shard = {i, kShards}});
    EXPECT_EQ(shard_run.shard_index, i);
    EXPECT_EQ(shard_run.shard_count, kShards);
    shards.push_back(load_checkpoint(path));
    ASSERT_TRUE(shards.back().present);
    std::remove(path.c_str());
  }

  const CheckpointData merged = merge_checkpoints(shards);
  EXPECT_TRUE(merged.complete());

  // Replaying the merged checkpoint through run_sweep executes nothing and
  // reproduces the same bytes again — the tools/merge_sweep workflow.
  const std::string merged_path = unique_path("ckpt_merged.jsonl");
  std::remove(merged_path.c_str());
  {
    std::ofstream out(merged_path, std::ios::trunc);
    write_checkpoint(out, merged);
  }
  std::atomic<std::size_t> calls{0};
  const SweepRun replay = run_sweep(
      spec, {"index", "x"},
      [&](const SweepSpec::Task& task) {
        calls.fetch_add(1);
        return seed_row(task);
      },
      {.threads = 2, .checkpoint_path = merged_path});
  EXPECT_EQ(calls.load(), 0u);
  EXPECT_EQ(rows_csv(spec, replay), rows_csv(spec, clean));
  std::remove(merged_path.c_str());
}

TEST(ExpCheckpoint, MergeRejectsDisagreeingShards) {
  EXPECT_THROW((void)merge_checkpoints({}), std::invalid_argument);

  CheckpointData a;
  a.present = true;
  a.sweep = "s";
  a.task_count = 2;
  a.metrics = {"m"};
  a.rows[0] = {1.0};
  a.seeds[0] = 11;
  CheckpointData b = a;
  b.sweep = "other";
  EXPECT_THROW((void)merge_checkpoints({a, b}), std::invalid_argument);

  CheckpointData c = a;
  c.rows[0] = {2.0};  // same index, different bits
  EXPECT_THROW((void)merge_checkpoints({a, c}), std::invalid_argument);

  CheckpointData d = a;
  d.rows[1] = {3.0};
  d.seeds[1] = 12;
  const CheckpointData merged = merge_checkpoints({a, d});
  EXPECT_TRUE(merged.complete());
  EXPECT_DOUBLE_EQ(merged.rows.at(1)[0], 3.0);
}

TEST(ExpCheckpoint, RequireMatchesRejectsStaleCheckpoints) {
  const SweepSpec spec = small_spec();
  const std::vector<std::string> metrics = {"index", "x"};
  const std::string path = unique_path("ckpt_stale.jsonl");
  std::remove(path.c_str());
  (void)run_sweep(spec, metrics, seed_row,
                  {.threads = 1, .checkpoint_path = path});
  const CheckpointData data = load_checkpoint(path);
  ASSERT_TRUE(data.present);
  require_matches(data, spec, metrics);  // the happy path must not throw

  SweepSpec renamed("ckpt_other", spec.base_seed());
  renamed.add_axis("strategy", {"a", "b"});
  renamed.add_axis("severity", std::vector<double>{0.5, 1.0, 1.5}, 1);
  renamed.set_replicates(2);
  EXPECT_THROW(require_matches(data, renamed, metrics), std::invalid_argument);

  SweepSpec reseeded("ckpt_unit", spec.base_seed() + 1);
  reseeded.add_axis("strategy", {"a", "b"});
  reseeded.add_axis("severity", std::vector<double>{0.5, 1.0, 1.5}, 1);
  reseeded.set_replicates(2);
  EXPECT_THROW(require_matches(data, reseeded, metrics),
               std::invalid_argument);

  SweepSpec regridded = small_spec();
  regridded.set_replicates(3);  // different task count
  EXPECT_THROW(require_matches(data, regridded, metrics),
               std::invalid_argument);

  EXPECT_THROW(require_matches(data, spec, {"index", "renamed"}),
               std::invalid_argument);
  std::remove(path.c_str());
}

TEST(ExpCheckpoint, RunSweepRejectsStaleCheckpointFile) {
  const SweepSpec spec = small_spec();
  const std::string path = unique_path("ckpt_mismatch.jsonl");
  std::remove(path.c_str());
  (void)run_sweep(spec, {"index", "x"}, seed_row,
                  {.threads = 1, .checkpoint_path = path});
  EXPECT_THROW((void)run_sweep(spec, {"index", "renamed"}, seed_row,
                               {.threads = 1, .checkpoint_path = path}),
               std::invalid_argument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dcs::exp
