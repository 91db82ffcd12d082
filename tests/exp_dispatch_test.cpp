// Supervisor tests against the scriptable fake worker (tests/fake_worker.cpp,
// path injected by CMake as FAKE_WORKER_PATH): clean completion, crash and
// restart under the retry budget, stall-timeout kills, retry-budget
// exhaustion with a partial-merge report, chaos-mode determinism of the
// merged checkpoint, a cooperative drain, and progress read from the
// shard checkpoints.
#include "exp/dispatch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/checkpoint.h"
#include "exp/runner.h"
#include "exp/sweep.h"
#include "util/json.h"

namespace dcs::exp {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir =
      std::string(::testing::TempDir()) + "/dispatch_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The fake worker's grid and task function, duplicated here so tests can
/// produce the unsharded, uninterrupted reference checkpoint in-process.
/// Must match fake_worker.cpp.
SweepSpec fake_spec(std::size_t tasks) {
  SweepSpec spec("fake", /*base_seed=*/0xFA4EULL);
  std::vector<double> values(tasks);
  for (std::size_t i = 0; i < tasks; ++i) values[i] = static_cast<double>(i);
  spec.add_axis("x", values, 0);
  return spec;
}

std::string reference_checkpoint(std::size_t tasks) {
  const std::string path = std::string(::testing::TempDir()) +
                           "/dispatch_reference_" + std::to_string(tasks) +
                           ".ckpt.jsonl";
  fs::remove(path);
  RunnerOptions options;
  options.threads = 1;
  options.checkpoint_path = path;
  (void)run_sweep(
      fake_spec(tasks), {"value"},
      [](const SweepSpec::Task& task) {
        return std::vector<double>{
            static_cast<double>(task.seed % 10007) / 3.0};
      },
      options);
  return path;
}

DispatchOptions base_options(const std::string& dir, std::size_t tasks,
                             std::size_t shards) {
  DispatchOptions options;
  options.command = {FAKE_WORKER_PATH, "sweep=fake",
                     "tasks=" + std::to_string(tasks),
                     "attempt_dir=" + dir};
  options.shards = shards;
  options.work_dir = dir;
  options.poll_interval_s = 0.02;
  options.backoff_base_s = 0.05;
  options.backoff_max_s = 0.2;
  options.stall_timeout_s = 20.0;  // generous; stall tests tighten it
  return options;
}

TEST(ExpDispatch, CleanCompletionMergesByteIdentical) {
  const std::string dir = fresh_dir("clean");
  const std::size_t tasks = 24;
  const DispatchReport report =
      dispatch_sweep(base_options(dir, tasks, /*shards=*/4));

  EXPECT_EQ(report.status, "complete");
  EXPECT_EQ(report.exit_code(), 0);
  ASSERT_EQ(report.shard_status.size(), 4u);
  for (const ShardStatus& s : report.shard_status) {
    EXPECT_EQ(s.state, "completed");
    EXPECT_EQ(s.restarts, 0u);
    ASSERT_EQ(s.attempts.size(), 1u);
    EXPECT_EQ(s.attempts[0].exit_code, 0);
    EXPECT_EQ(s.attempts[0].outcome, "completed");
  }
  ASSERT_EQ(report.merged.size(), 1u);
  EXPECT_TRUE(report.merged[0].complete());
  EXPECT_EQ(report.merged[0].rows, tasks);
  EXPECT_TRUE(report.merged[0].missing.empty());

  // The merged checkpoint must be byte-identical to an unsharded,
  // uninterrupted in-process run of the same grid.
  EXPECT_EQ(slurp(report.merged[0].path), slurp(reference_checkpoint(tasks)));
  fs::remove_all(dir);
}

TEST(ExpDispatch, CrashedWorkersRestartWithBackoffAndFinish) {
  const std::string dir = fresh_dir("crash");
  const std::size_t tasks = 16;
  DispatchOptions options = base_options(dir, tasks, /*shards=*/2);
  // Every shard crashes twice (after 2 fresh rows each attempt), then
  // succeeds on the third attempt — inside the budget of 3.
  options.command.push_back("crash_attempts=2");
  options.command.push_back("crash_rows=2");
  options.max_restarts = 3;

  const DispatchReport report = dispatch_sweep(options);
  EXPECT_EQ(report.status, "complete");
  for (const ShardStatus& s : report.shard_status) {
    EXPECT_EQ(s.state, "completed");
    EXPECT_EQ(s.restarts, 2u);
    ASSERT_EQ(s.attempts.size(), 3u);
    EXPECT_EQ(s.attempts[0].outcome, "crashed");
    EXPECT_EQ(s.attempts[0].exit_code, 42);
    EXPECT_EQ(s.attempts[1].outcome, "crashed");
    EXPECT_EQ(s.attempts[2].outcome, "completed");
    // Crash-only recovery: each attempt resumed past its predecessor.
    EXPECT_GT(s.attempts[1].checkpoint_bytes, s.attempts[0].checkpoint_bytes);
  }
  ASSERT_EQ(report.merged.size(), 1u);
  EXPECT_EQ(slurp(report.merged[0].path), slurp(reference_checkpoint(tasks)));
  fs::remove_all(dir);
}

TEST(ExpDispatch, StalledWorkerIsKilledAndRestarted) {
  const std::string dir = fresh_dir("stall");
  const std::size_t tasks = 8;
  DispatchOptions options = base_options(dir, tasks, /*shards=*/2);
  // Attempt 1 of each shard writes one row and hangs; the supervisor must
  // kill it on the stall timeout and the restart completes the slice.
  options.command.push_back("stall_attempts=1");
  options.stall_timeout_s = 0.3;
  options.max_restarts = 2;

  const DispatchReport report = dispatch_sweep(options);
  EXPECT_EQ(report.status, "complete");
  for (const ShardStatus& s : report.shard_status) {
    EXPECT_EQ(s.state, "completed");
    EXPECT_EQ(s.restarts, 1u);
    ASSERT_EQ(s.attempts.size(), 2u);
    EXPECT_EQ(s.attempts[0].outcome, "stalled");
    EXPECT_EQ(s.attempts[0].term_signal, SIGKILL);
    EXPECT_EQ(s.attempts[1].outcome, "completed");
  }
  ASSERT_EQ(report.merged.size(), 1u);
  EXPECT_EQ(slurp(report.merged[0].path), slurp(reference_checkpoint(tasks)));
  fs::remove_all(dir);
}

TEST(ExpDispatch, RetryBudgetExhaustionDegradesWithPartialMerge) {
  const std::string dir = fresh_dir("budget");
  const std::size_t tasks = 12;
  DispatchOptions options = base_options(dir, tasks, /*shards=*/2);
  // Shard 1 fails on every attempt; with a zero retry budget its first
  // failure is final. Shard 0 completes normally.
  options.command.push_back("fail_attempts=1000000");
  options.command.push_back("fail_shard=1");
  options.max_restarts = 0;

  const DispatchReport report = dispatch_sweep(options);
  EXPECT_EQ(report.status, "degraded");
  EXPECT_EQ(report.exit_code(), 1);
  EXPECT_EQ(report.shard_status[0].state, "completed");
  EXPECT_EQ(report.shard_status[1].state, "failed");
  EXPECT_EQ(report.shard_status[1].attempts.size(), 1u);

  // Graceful degradation: shard 0's half is merged and usable, and the
  // report names exactly the failed shard's task indices as missing.
  ASSERT_EQ(report.merged.size(), 1u);
  const MergedSweep& merged = report.merged[0];
  EXPECT_FALSE(merged.complete());
  const auto [first, last] = shard_range(tasks, {1, 2});
  std::vector<std::size_t> expected_missing;
  for (std::size_t t = first; t < last; ++t) expected_missing.push_back(t);
  EXPECT_EQ(merged.missing, expected_missing);
  EXPECT_EQ(merged.rows, tasks - expected_missing.size());

  // The partial merged checkpoint still loads and resumes.
  const CheckpointData partial = load_checkpoint(merged.path);
  ASSERT_TRUE(partial.present);
  EXPECT_FALSE(partial.complete());
  EXPECT_EQ(partial.rows.size(), merged.rows);

  // The machine-readable report names the missing indices too.
  const json::Value doc = json::parse(dispatch_report_json(report));
  EXPECT_EQ(doc.at("status").as_string(), "degraded");
  const json::Value& missing = doc.at("merged")[0].at("missing");
  ASSERT_EQ(missing.size(), expected_missing.size());
  for (std::size_t i = 0; i < missing.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(missing[i].as_number()),
              expected_missing[i]);
  }
  fs::remove_all(dir);
}

TEST(ExpDispatch, ResumeReportRecomputesOnlyMissingTasks) {
  const std::string dir = fresh_dir("resume_src");
  const std::size_t tasks = 12;
  DispatchOptions options = base_options(dir, tasks, /*shards=*/2);
  // Degraded first run: shard 1 burns its (zero) budget, so its slice
  // [6, 12) lands in the report as missing.
  options.command.push_back("fail_attempts=1000000");
  options.command.push_back("fail_shard=1");
  options.max_restarts = 0;
  const DispatchReport degraded = dispatch_sweep(options);
  ASSERT_EQ(degraded.status, "degraded");
  const std::string report_path = dir + "/dispatch_report.json";
  ASSERT_TRUE(write_dispatch_report(report_path, degraded));

  // Resume into a fresh work dir with a *different* shard count: missing
  // task indices are global, so re-slicing them three ways is still exact.
  // Slices are [0,4) [4,8) [8,12); only 6..11 are missing, so shard 0 has
  // nothing to do and must complete without spawning a single attempt.
  const std::string resume_dir = fresh_dir("resume_dst");
  DispatchOptions resume = base_options(resume_dir, tasks, /*shards=*/3);
  resume.resume_report_path = report_path;
  const DispatchReport report = dispatch_sweep(resume);

  EXPECT_EQ(report.status, "complete");
  ASSERT_EQ(report.shard_status.size(), 3u);
  EXPECT_EQ(report.shard_status[0].state, "completed");
  EXPECT_TRUE(report.shard_status[0].attempts.empty())
      << "a shard with no pending tasks must be skipped, not spawned";
  EXPECT_EQ(report.shard_status[1].attempts.size(), 1u);
  EXPECT_EQ(report.shard_status[2].attempts.size(), 1u);
  ASSERT_EQ(report.merged.size(), 1u);
  EXPECT_TRUE(report.merged[0].complete());
  // Seed + recompute merges byte-identical to an unsharded clean run.
  EXPECT_EQ(slurp(report.merged[0].path), slurp(reference_checkpoint(tasks)));
  fs::remove_all(dir);
  fs::remove_all(resume_dir);
}

TEST(ExpDispatch, ResumeFromCompleteReportSkipsEveryShard) {
  const std::string dir = fresh_dir("resume_complete_src");
  const std::size_t tasks = 8;
  const DispatchReport clean =
      dispatch_sweep(base_options(dir, tasks, /*shards=*/2));
  ASSERT_EQ(clean.status, "complete");
  const std::string report_path = dir + "/dispatch_report.json";
  ASSERT_TRUE(write_dispatch_report(report_path, clean));

  const std::string resume_dir = fresh_dir("resume_complete_dst");
  DispatchOptions resume = base_options(resume_dir, tasks, /*shards=*/2);
  resume.resume_report_path = report_path;
  const DispatchReport report = dispatch_sweep(resume);

  EXPECT_EQ(report.status, "complete");
  for (const ShardStatus& s : report.shard_status) {
    EXPECT_EQ(s.state, "completed");
    EXPECT_TRUE(s.attempts.empty());
  }
  ASSERT_EQ(report.merged.size(), 1u);
  EXPECT_TRUE(report.merged[0].complete());
  EXPECT_EQ(slurp(report.merged[0].path), slurp(reference_checkpoint(tasks)));
  fs::remove_all(dir);
  fs::remove_all(resume_dir);
}

TEST(ExpDispatch, ResumeReportRejectsUnreadableReport) {
  const std::string dir = fresh_dir("resume_bad");
  DispatchOptions options = base_options(dir, /*tasks=*/4, /*shards=*/1);
  options.resume_report_path = dir + "/no_such_report.json";
  EXPECT_THROW((void)dispatch_sweep(options), std::invalid_argument);

  // A JSON file that is not a dispatch report is rejected too.
  const std::string not_report = dir + "/not_report.json";
  { std::ofstream(not_report) << "{\"hello\": 1}\n"; }
  options.resume_report_path = not_report;
  EXPECT_THROW((void)dispatch_sweep(options), std::invalid_argument);
  fs::remove_all(dir);
}

TEST(ExpDispatch, ResumeReportRejectsOutOfRangeTaskNumbers) {
  const std::string dir = fresh_dir("resume_range");
  DispatchOptions options = base_options(dir, /*tasks=*/4, /*shards=*/1);
  const std::string checkpoint = dir + "/merged.ckpt.jsonl";
  { std::ofstream(checkpoint) << "{}\n"; }
  const std::string report = dir + "/report.json";
  options.resume_report_path = report;
  const auto write_report = [&](const std::string& task_count,
                                const std::string& missing) {
    std::ofstream(report) << "{\"dispatch_report\": 1, \"merged\": [{"
                             "\"sweep\": \"fake\", \"path\": \""
                          << checkpoint << "\", \"task_count\": " << task_count
                          << ", \"missing\": [" << missing << "]}]}\n";
  };
  // A task count or a missing task index that is not a whole number in
  // range is an unusable report, like one that does not parse.
  for (const char* bad : {"-1", "1e999", "0.5"}) {
    write_report(bad, "0");
    EXPECT_THROW((void)dispatch_sweep(options), std::invalid_argument) << bad;
    write_report("4", bad);
    EXPECT_THROW((void)dispatch_sweep(options), std::invalid_argument) << bad;
  }
  fs::remove_all(dir);
}

TEST(ExpDispatch, ChaosKillsAreFreeAndMergeDeterministically) {
  const std::string dir = fresh_dir("chaos");
  const std::size_t tasks = 60;
  DispatchOptions options = base_options(dir, tasks, /*shards=*/4);
  // ~15 rows/shard at 15 ms each ≈ 225 ms of work against an 80 ms poll
  // with certain kills: every shard is chaos-killed at least twice before
  // it can finish, yet each attempt lands a few more rows first.
  options.command.push_back("sleep_ms=15");
  options.poll_interval_s = 0.08;
  options.chaos_kill_prob = 1.0;
  options.chaos_seed = 7;
  // Chaos kills are self-inflicted and must consume no retry budget: a
  // zero budget still completes.
  options.max_restarts = 0;

  const DispatchReport report = dispatch_sweep(options);
  EXPECT_EQ(report.status, "complete");
  EXPECT_GE(report.chaos_kills, 3u)
      << "the chaos schedule must actually kill workers";
  for (const ShardStatus& s : report.shard_status) {
    EXPECT_EQ(s.state, "completed");
    EXPECT_EQ(s.restarts, 0u) << "chaos kills must not consume the budget";
  }
  ASSERT_EQ(report.merged.size(), 1u);
  EXPECT_TRUE(report.merged[0].complete());
  // Determinism under fire: the chaos-ridden merge is byte-identical to an
  // unsharded, uninterrupted run.
  EXPECT_EQ(slurp(report.merged[0].path), slurp(reference_checkpoint(tasks)));
  fs::remove_all(dir);
}

TEST(ExpDispatch, DrainInterruptsAndLeavesResumableState) {
  const std::string dir = fresh_dir("drain");
  const std::size_t tasks = 40;
  DispatchOptions options = base_options(dir, tasks, /*shards=*/2);
  options.command.push_back("sleep_ms=100");  // slow enough to interrupt
  options.grace_period_s = 2.0;
  std::atomic<bool> stop{false};
  options.stop = &stop;

  std::thread trigger([&stop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    stop.store(true);
  });
  const DispatchReport report = dispatch_sweep(options);
  trigger.join();

  EXPECT_EQ(report.status, "interrupted");
  EXPECT_EQ(report.exit_code(), 3);
  // Whatever was checkpointed before the drain still merges and loads —
  // the resumable state the report advertises.
  for (const ShardStatus& s : report.shard_status) {
    EXPECT_TRUE(s.state == "interrupted" || s.state == "completed");
  }
  if (!report.merged.empty() && report.merged[0].error.empty()) {
    const CheckpointData partial = load_checkpoint(report.merged[0].path);
    EXPECT_TRUE(partial.present || partial.rows.empty());
  }
  fs::remove_all(dir);
}

TEST(ExpDispatch, TelemetryDispatchMergesAlignedTimelineAcrossRestarts) {
  const std::string dir = fresh_dir("telemetry");
  const std::size_t tasks = 16;
  DispatchOptions options = base_options(dir, tasks, /*shards=*/2);
  options.telemetry = true;
  options.status_interval_s = 0.05;
  std::ostringstream log;
  options.log = &log;
  // Shard crashes exercise the multi-attempt stream naming and prove the
  // merge tolerates the torn, end-marker-less streams crashes leave.
  options.command.push_back("crash_attempts=1");
  options.command.push_back("crash_rows=2");
  options.command.push_back("sleep_ms=20");  // outlive the status interval
  options.max_restarts = 2;

  const DispatchReport report = dispatch_sweep(options);
  ASSERT_EQ(report.status, "complete");
  EXPECT_TRUE(report.telemetry);
  ASSERT_TRUE(report.timeline.ok()) << report.timeline.error;
  // dispatcher + 2 shards x 2 attempts, every stream headered: a crashed
  // attempt's stream holds just its header, flushed when it opened.
  EXPECT_EQ(report.timeline.sources, 5u);
  EXPECT_EQ(report.timeline.aligned_sources, 5u);
  EXPECT_GT(report.timeline.events, 0u);
  EXPECT_GT(report.timeline.base_epoch_unix_us, 0);

  // Progress comes from the checkpoints across both attempts, and the
  // status ticker reported it while workers ran.
  for (const ShardStatus& s : report.shard_status) {
    EXPECT_EQ(s.tasks_done, tasks / 2);
    EXPECT_EQ(s.tasks_total, tasks / 2);
    EXPECT_EQ(s.rows, tasks / 2);
  }
  EXPECT_NE(log.str().find("status:"), std::string::npos);

  // Both timeline encodings landed, plus the folded stacks. Crashed
  // first attempts die before writing their stack line, so the keys carry
  // the completing attempts' src tags.
  EXPECT_TRUE(fs::is_regular_file(report.timeline.jsonl_path));
  EXPECT_TRUE(fs::is_regular_file(report.timeline.perfetto_path));
  ASSERT_TRUE(fs::is_regular_file(report.timeline.stacks_path));
  const std::string stacks = slurp(report.timeline.stacks_path);
  EXPECT_NE(stacks.find("shard0#2;fake;task"), std::string::npos);
  EXPECT_NE(stacks.find("shard1#2;fake;task"), std::string::npos);

  // The merged timeline carries every source: supervisor lifecycle events
  // tagged "dispatcher" and worker task instants per shard and attempt.
  const std::string timeline = slurp(report.timeline.jsonl_path);
  EXPECT_NE(timeline.find("\"src\":\"dispatcher\""), std::string::npos);
  EXPECT_NE(timeline.find("\"name\":\"spawn\""), std::string::npos);
  EXPECT_NE(timeline.find("\"name\":\"restart\""), std::string::npos);
  EXPECT_NE(timeline.find("\"src\":\"shard0\""), std::string::npos);
  EXPECT_NE(timeline.find("\"src\":\"shard0#2\""), std::string::npos);
  EXPECT_NE(timeline.find("\"src\":\"shard1#2\""), std::string::npos);

  // Report JSON carries the telemetry block.
  const json::Value doc = json::parse(dispatch_report_json(report));
  EXPECT_TRUE(doc.at("telemetry").as_bool());
  EXPECT_EQ(doc.at("timeline").at("sources").as_number(), 5.0);
  EXPECT_EQ(doc.at("shard_status")[0].at("tasks_done").as_number(),
            static_cast<double>(tasks / 2));

  // Restart-and-remerge determinism: a second merge over the same work dir
  // (what a dispatcher restart does) must reproduce the same bytes.
  TimelineOptions remerge;
  remerge.work_dir = dir;
  remerge.shards = 2;
  remerge.out_dir = dir + "/remerged";
  const TimelineSummary again = merge_timeline(remerge);
  ASSERT_TRUE(again.ok()) << again.error;
  EXPECT_EQ(slurp(again.jsonl_path), timeline);
  EXPECT_EQ(slurp(again.perfetto_path), slurp(report.timeline.perfetto_path));

  // The sweep result is untouched by telemetry: still byte-identical to the
  // unsharded reference.
  ASSERT_EQ(report.merged.size(), 1u);
  EXPECT_EQ(slurp(report.merged[0].path), slurp(reference_checkpoint(tasks)));
  fs::remove_all(dir);
}

/// Per-shard done counts of every "status:" line in `log`, in order.
std::vector<std::vector<std::size_t>> status_done_counts(
    const std::string& log, std::size_t shards) {
  std::vector<std::vector<std::size_t>> counts;
  std::istringstream lines(log);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("status:") == std::string::npos) continue;
    std::vector<std::size_t> done(shards, 0);
    for (std::size_t i = 0; i < shards; ++i) {
      const std::string key = " shard" + std::to_string(i) + "=";
      const std::size_t at = line.find(key);
      if (at == std::string::npos) continue;
      const std::size_t begin = at + key.size();
      // "<done>/<total> ..." while running; a state name once finished.
      if (std::isdigit(static_cast<unsigned char>(line[begin])) != 0) {
        done[i] = std::stoul(line.substr(begin));
      } else if (line.compare(begin, 9, "completed") == 0) {
        done[i] = SIZE_MAX;
      }
    }
    counts.push_back(done);
  }
  return counts;
}

TEST(ExpDispatch, ProgressComesFromCheckpointsAcrossSweeps) {
  // Two sweeps per worker and no telemetry stream: done/total must still
  // cover both sweeps, never reset when the worker moves to its second
  // sweep, and match the rows the checkpoints hold.
  const std::string dir = fresh_dir("progress");
  const std::size_t tasks = 16;
  const std::size_t shards = 2;
  DispatchOptions options = base_options(dir, tasks, shards);
  options.command.push_back("sweeps=2");
  options.command.push_back("sleep_ms=20");  // outlive the status interval
  options.status_interval_s = 0.03;
  std::ostringstream log;
  options.log = &log;

  const DispatchReport report = dispatch_sweep(options);
  ASSERT_EQ(report.status, "complete");
  EXPECT_FALSE(report.telemetry);
  ASSERT_EQ(report.merged.size(), 2u);
  const std::size_t slice = tasks / shards;
  for (const ShardStatus& s : report.shard_status) {
    EXPECT_EQ(s.tasks_done, 2 * slice) << "shard " << s.shard;
    EXPECT_EQ(s.tasks_total, 2 * slice) << "shard " << s.shard;
    EXPECT_EQ(s.rows, 2 * slice) << "shard " << s.shard;
  }
  const json::Value doc = json::parse(dispatch_report_json(report));
  EXPECT_EQ(doc.at("shard_status")[1].at("tasks_done").as_number(),
            static_cast<double>(2 * slice));

  const std::vector<std::vector<std::size_t>> counts =
      status_done_counts(log.str(), shards);
  ASSERT_FALSE(counts.empty()) << "no status lines without --telemetry";
  bool saw_second_sweep = false;
  for (std::size_t n = 1; n < counts.size(); ++n) {
    for (std::size_t i = 0; i < shards; ++i) {
      EXPECT_GE(counts[n][i], counts[n - 1][i])
          << "shard " << i << " done count fell at status line " << n
          << ":\n" << log.str();
      saw_second_sweep = saw_second_sweep ||
                         (counts[n][i] > slice && counts[n][i] != SIZE_MAX);
    }
  }
  EXPECT_TRUE(saw_second_sweep)
      << "no status line counted past the first sweep:\n" << log.str();
  fs::remove_all(dir);
}

TEST(ExpDispatch, TelemetryOffLeavesNoStreamsAndNoTimeline) {
  const std::string dir = fresh_dir("telemetry_off");
  const DispatchReport report =
      dispatch_sweep(base_options(dir, /*tasks=*/8, /*shards=*/2));
  ASSERT_EQ(report.status, "complete");
  EXPECT_FALSE(report.telemetry);
  EXPECT_FALSE(fs::exists(dir + "/dispatcher_telemetry.jsonl"));
  EXPECT_FALSE(fs::exists(dir + "/shard_0/telemetry_0001.jsonl"));
  EXPECT_FALSE(fs::exists(dir + "/merged/timeline.jsonl"));
  const json::Value doc = json::parse(dispatch_report_json(report));
  EXPECT_FALSE(doc.at("telemetry").as_bool());
  EXPECT_EQ(doc.find("timeline"), nullptr);
  fs::remove_all(dir);
}

TEST(ExpDispatch, ReportJsonRoundTrips) {
  DispatchReport report;
  report.status = "degraded";
  report.shards = 2;
  report.chaos_kills = 1;
  report.wall_s = 1.5;
  ShardStatus shard;
  shard.shard = 0;
  shard.state = "failed";
  shard.restarts = 3;
  AttemptResult attempt;
  attempt.exit_code = 42;
  attempt.outcome = "crashed";
  attempt.wall_s = 0.25;
  shard.attempts.push_back(attempt);
  report.shard_status.push_back(shard);
  MergedSweep merged;
  merged.sweep = "fake";
  merged.task_count = 4;
  merged.rows = 2;
  merged.missing = {2, 3};
  report.merged.push_back(merged);

  const json::Value doc = json::parse(dispatch_report_json(report));
  EXPECT_EQ(doc.at("status").as_string(), "degraded");
  EXPECT_EQ(doc.at("shards").as_number(), 2.0);
  EXPECT_EQ(doc.at("shard_status")[0].at("attempts")[0].at("exit_code")
                .as_number(),
            42.0);
  EXPECT_EQ(doc.at("merged")[0].at("missing").size(), 2u);
  EXPECT_FALSE(doc.at("merged")[0].at("complete").as_bool());

  const std::string dir = fresh_dir("report");
  const std::string path = dir + "/report.json";
  ASSERT_TRUE(write_dispatch_report(path, report));
  EXPECT_EQ(slurp(path), dispatch_report_json(report));
  EXPECT_FALSE(write_dispatch_report(dir + "/no_such_dir/report.json",
                                     report));
  fs::remove_all(dir);
}

TEST(ExpDispatch, RejectsUnusableOptions) {
  DispatchOptions options;
  EXPECT_THROW((void)dispatch_sweep(options), std::invalid_argument);
  options.command = {"/bin/true"};
  EXPECT_THROW((void)dispatch_sweep(options), std::invalid_argument);
  options.work_dir = fresh_dir("reject");
  options.shards = 0;
  EXPECT_THROW((void)dispatch_sweep(options), std::invalid_argument);
  fs::remove_all(options.work_dir);
}

}  // namespace
}  // namespace dcs::exp
