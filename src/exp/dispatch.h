// Fault-tolerant distributed sweep dispatch: a process supervisor that turns
// any checkpointing sweep bench into a multi-worker run that survives
// crashes, hangs and kills.
//
// The dispatcher spawns N shard workers from one command template, appending
// `shard=i/N checkpoint=<work_dir>/shard_i` to each (the contract every
// bench built on bench_util already speaks), and watches liveness two ways:
//
//   * process exit status — exit 0 completes the shard, anything else (or
//     death by signal) is a crash;
//   * checkpoint growth — the byte size of the shard's `*.ckpt.jsonl`
//     files must grow within `stall_timeout_s`, otherwise the worker is
//     presumed hung and killed.
//
// The same files are the one progress signal: whenever they grow, the
// dispatcher loads them and counts the rows inside the shard's slice of
// each sweep (ShardStatus::tasks_done / tasks_total, the status lines).
//
// Dead or stalled workers are restarted with exponential backoff under a
// per-shard retry budget. Workers are crash-only: every completed row was
// already flushed to the shard checkpoint, so a restart re-runs only the
// rows that were in flight (`RunnerOptions::checkpoint_path` resume).
//
// When every shard completes, the dispatcher merges the shard checkpoints
// (exp::merge_checkpoints — headers must carry the same sweep fingerprint,
// overlapping rows must be bit-identical) into `<work_dir>/merged/` via
// atomic rename. When a shard exhausts its budget it degrades gracefully:
// what exists is still merged, the report lists the missing task indices,
// and the run is reported as "degraded" — partial results stay usable but
// can never be mistaken for complete ones.
//
// A seeded chaos mode (`chaos_kill_prob`) randomly SIGKILLs live workers at
// poll time to test the supervisor against itself; self-inflicted kills are
// not failures, so they consume no retry budget and trigger no backoff.
// Chaos timing is wall-clock and therefore not reproducible, but the merged
// result is: deterministic task seeding makes every attempt compute the
// same bytes, so a chaos-ridden run merges byte-identical to a clean one.
//
// Supervision state machine (per shard; DESIGN.md §8):
//
//   pending -> running -> completed            (exit 0)
//                      -> backoff -> running   (crash/stall/deadline, budget
//                                               left; chaos skips backoff)
//                      -> failed               (budget exhausted)
//   any     -> interrupted                     (drain: stop flag observed)
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "exp/timeline.h"

namespace dcs::exp {

struct DispatchOptions {
  /// Worker command template (argv[0] + args). The dispatcher appends
  /// `shard=i/N` and `checkpoint=<work_dir>/shard_i` for shard i. It must
  /// not set `trace=`: every shard would write the same file (`telemetry`
  /// gives each attempt its own stream).
  std::vector<std::string> command;
  /// Worker process count N (one contiguous task slice each).
  std::size_t shards = 1;
  /// Scratch root: per-shard checkpoint dirs and attempt logs land in
  /// `<work_dir>/shard_i/`, merged checkpoints in `<work_dir>/merged/`.
  std::string work_dir;
  /// Restarts a shard may consume after crashes/stalls/deadlines before it
  /// is declared failed (chaos kills are free — see above).
  std::size_t max_restarts = 3;
  /// Kill a worker whose checkpoint files stopped growing for this long
  /// (seconds; 0 disables). Must exceed the longest single task.
  double stall_timeout_s = 120.0;
  /// Per-attempt wall-clock cap (seconds; 0 disables).
  double attempt_deadline_s = 0.0;
  /// Exponential backoff before restart r: base * 2^(r-1), capped.
  double backoff_base_s = 0.5;
  double backoff_max_s = 30.0;
  /// Supervisor poll cadence (exit status, progress, chaos) in seconds.
  double poll_interval_s = 0.05;
  /// Drain: after forwarding SIGTERM, wait this long for workers to flush
  /// and exit before SIGKILL.
  double grace_period_s = 10.0;
  /// Chaos mode: per poll, each live worker is SIGKILLed with this
  /// probability (seeded; 0 disables).
  double chaos_kill_prob = 0.0;
  std::uint64_t chaos_seed = 0x0C4A05ULL;
  /// Total chaos kills after which chaos disarms (0 = unlimited). A capped
  /// chaos run is guaranteed to terminate even at kill probability 1.
  std::size_t chaos_kill_limit = 0;
  /// Resume from a degraded/interrupted run's dispatch_report.json: every
  /// cleanly merged sweep checkpoint named in the report is seeded into the
  /// new shard dirs before workers start, so each worker resumes from the
  /// *merged* rows and re-runs only the report's missing task indices.
  /// Shards whose slice has no missing work (across every cleanly seeded
  /// sweep) are marked completed without spawning a process at all. Empty
  /// disables. An unreadable or malformed report throws
  /// std::invalid_argument (better to fail loudly than silently recompute
  /// the whole sweep).
  std::string resume_report_path;
  /// Telemetry plane: each worker attempt gets
  /// `telemetry=<shard_dir>/telemetry_<attempt>.jsonl` appended to its
  /// command (obs::TelemetrySink stream), the dispatcher writes its own
  /// supervision stream to `<work_dir>/dispatcher_telemetry.jsonl`, and
  /// after the checkpoint merge it merges every stream into
  /// `<work_dir>/merged/timeline.*` (exp/timeline.h).
  bool telemetry = false;
  /// Cadence of the aggregated per-shard status lines, done/total from the
  /// checkpoints (seconds; needs `log`; 0 disables).
  double status_interval_s = 5.0;
  /// Drain request (e.g. wired to a SIGINT/SIGTERM flag by the CLI): when
  /// it turns true the dispatcher forwards SIGTERM to every worker, waits
  /// out the grace period, merges what exists and reports "interrupted".
  const std::atomic<bool>* stop = nullptr;
  /// Progress diagnostics (spawn/kill/restart lines); null = silent.
  std::ostream* log = nullptr;
};

/// One worker attempt, as observed by the supervisor.
struct AttemptResult {
  /// Exit code when the worker exited (term_signal == 0), else unset (-1).
  int exit_code = -1;
  /// Terminating signal when the worker died by one, else 0.
  int term_signal = 0;
  double wall_s = 0.0;
  /// Shard checkpoint bytes on disk when the attempt ended (progress proof).
  std::uint64_t checkpoint_bytes = 0;
  /// "completed" | "crashed" | "stalled" | "deadline" | "chaos" |
  /// "drained" | "spawn-failed"
  std::string outcome;
};

struct ShardStatus {
  std::size_t shard = 0;
  /// Terminal state: "completed" | "failed" | "interrupted".
  std::string state;
  /// Budget-consuming restarts (crash/stall/deadline).
  std::size_t restarts = 0;
  /// Self-inflicted chaos kills (restarted for free).
  std::size_t chaos_kills = 0;
  /// Rows present in this shard's checkpoint files at the end.
  std::size_t rows = 0;
  /// Rows of this shard's slice in its checkpoint files, and the summed
  /// slice sizes of the sweeps it wrote (resume-seeded rows outside the
  /// slice count in `rows` only).
  std::size_t tasks_done = 0;
  std::size_t tasks_total = 0;
  std::vector<AttemptResult> attempts;
};

/// One merged sweep checkpoint (benches may run several sweeps; each
/// `<sweep>.ckpt.jsonl` file name seen in any shard dir merges separately).
struct MergedSweep {
  std::string sweep;
  /// Merged checkpoint path (empty when nothing could be written).
  std::string path;
  std::size_t rows = 0;
  std::size_t task_count = 0;
  /// Task indices no shard covered, in ascending order.
  std::vector<std::size_t> missing;
  /// Non-empty when the merge itself failed (fingerprint or row conflict).
  std::string error;

  [[nodiscard]] bool complete() const noexcept {
    return error.empty() && rows == task_count && task_count > 0;
  }
};

struct DispatchReport {
  /// "complete" | "degraded" | "interrupted"
  std::string status;
  std::size_t shards = 0;
  std::size_t chaos_kills = 0;
  double wall_s = 0.0;
  /// True when the run streamed telemetry (timeline below is meaningful).
  bool telemetry = false;
  std::vector<ShardStatus> shard_status;
  std::vector<MergedSweep> merged;
  /// Cross-process timeline merge result (telemetry mode only).
  TimelineSummary timeline;

  [[nodiscard]] bool complete() const noexcept {
    return status == "complete";
  }
  /// CLI exit code: 0 complete, 1 degraded, 3 interrupted.
  [[nodiscard]] int exit_code() const noexcept {
    return status == "complete" ? 0 : status == "interrupted" ? 3 : 1;
  }
};

/// Runs the supervision loop to completion (or drain) and merges the shard
/// checkpoints. Throws std::invalid_argument on unusable options (empty
/// command, a command that sets trace=, zero shards, empty work_dir);
/// worker-level failures never throw — they land in the report as
/// "degraded".
[[nodiscard]] DispatchReport dispatch_sweep(const DispatchOptions& options);

/// Machine-readable report (schema documented in EXPERIMENTS.md).
[[nodiscard]] std::string dispatch_report_json(const DispatchReport& report);

/// Writes the JSON report via a sibling temp file and atomic rename.
/// Returns false when the file cannot be written.
[[nodiscard]] bool write_dispatch_report(const std::string& path,
                                         const DispatchReport& report);

}  // namespace dcs::exp
