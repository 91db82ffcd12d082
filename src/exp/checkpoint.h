// Crash-safe sweep checkpoints: completed task rows append-streamed to a
// JSONL file, keyed by task index, so a killed sweep resumes from the rows
// it already earned and N sharded processes can merge their slices back
// into one task-indexed run.
//
// File format (one JSON object per line):
//
//   {"checkpoint": "<sweep>", "version": 1, "base_seed": "<u64>",
//    "task_count": N, "metrics": ["m0", ...]}          <- header, line 1
//   {"index": 7, "seed": "<u64>", "row": [1.5, "inf"]} <- one per task
//
// Seeds are decimal strings (JSON numbers are doubles and cannot hold a
// full uint64). Row values go through json::number_to_string, so they
// round-trip bit-for-bit — including non-finite values — and a resumed or
// merged run reproduces the exact bytes of an uninterrupted one.
//
// Crash safety follows the JSONL discipline of obs/sink.h: the file is
// append-only and every line is flushed as soon as it is written, so it is
// valid up to the last flushed line no matter when the process dies; a
// torn trailing line (kill mid-append) is tolerated and simply re-run.
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "exp/sweep.h"

namespace dcs::exp {

/// Parsed contents of a checkpoint file: the sweep fingerprint from the
/// header plus every completed row, keyed by task index.
struct CheckpointData {
  /// False when the file did not exist (a fresh start, not an error).
  bool present = false;
  std::string sweep;
  std::uint64_t base_seed = 0;
  std::size_t task_count = 0;
  std::vector<std::string> metrics;
  std::map<std::size_t, std::vector<double>> rows;
  std::map<std::size_t, std::uint64_t> seeds;

  /// True when every task index [0, task_count) has a row.
  [[nodiscard]] bool complete() const noexcept {
    return present && rows.size() == task_count;
  }
};

/// Loads a checkpoint file. A missing file — or an existing but empty one,
/// the state a worker killed between open and header flush leaves behind —
/// returns `present == false` (a fresh start, not an error); a non-empty
/// file with a malformed header throws std::invalid_argument. A
/// torn trailing line (crash mid-append) stops the scan and is not an
/// error; on duplicate indices (e.g. two resumed attempts) the last row
/// wins — deterministic seeding makes them identical anyway.
[[nodiscard]] CheckpointData load_checkpoint(const std::string& path);

/// DCS_REQUIRE that `data` (which must be present) was produced by a sweep
/// with this spec shape and metric list — same name, base seed, task count
/// and metrics — and that every stored row has one value per metric and the
/// seed the spec assigns to its index.
void require_matches(const CheckpointData& data, const SweepSpec& spec,
                     const std::vector<std::string>& metrics);

/// Writes a full checkpoint document (header plus rows in index order);
/// tools/merge_sweep uses this to emit the merged file.
void write_checkpoint(std::ostream& out, const CheckpointData& data);

/// Writes `data` to `path` via a sibling `.tmp` file and an atomic rename,
/// so a crash or full disk mid-write can never leave a truncated checkpoint
/// that a later resume would adopt as valid — either the old file survives
/// untouched or the complete new one appears. Returns false (removing the
/// temp file, leaving any previous `path` intact) when the write fails.
[[nodiscard]] bool write_checkpoint_atomic(const std::string& path,
                                           const CheckpointData& data);

/// Merges shard checkpoints into one CheckpointData covering the union of
/// their rows. All inputs must be present and share the header fingerprint;
/// the same index appearing twice must carry bit-identical rows. Throws
/// std::invalid_argument on empty input, fingerprint mismatch or row
/// conflict.
[[nodiscard]] CheckpointData merge_checkpoints(
    const std::vector<CheckpointData>& shards);

/// Append-only checkpoint writer used by run_sweep. Opens `path` for
/// append, emitting the header first when the file is new or empty.
/// `append` is thread-safe (workers complete tasks concurrently) and
/// flushes each line, dropping to `ok() == false` the moment the stream
/// fails (disk full, unlinked directory) — mirroring obs::JsonlStreamSink.
class CheckpointWriter {
 public:
  CheckpointWriter(const std::string& path, const SweepSpec& spec,
                   const std::vector<std::string>& metrics);

  void append(std::size_t index, std::uint64_t seed,
              const std::vector<double>& row);

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  std::mutex mu_;
  std::ofstream out_;
  bool ok_ = false;
};

}  // namespace dcs::exp
