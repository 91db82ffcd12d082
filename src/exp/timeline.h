// Cross-process timeline merge: folds the dispatcher's own telemetry
// stream and every shard worker's per-attempt telemetry stream
// (obs::TelemetrySink, obs/sink.h) into one timeline, aligned on a shared
// wall-clock epoch.
//
// Alignment: each stream's header carries the producing process's
// obs::Profiler::epoch_unix_us(). The merge picks the earliest epoch as
// t=0 and shifts every *wall*-domain event by (stream epoch - base), so a
// span that started 3 s into a restarted worker's life lands 3 s after
// that worker's actual start on the shared axis — dispatcher supervision,
// worker attempts and restart gaps all line up. Sim-domain events keep
// their simulated timestamps untouched (they share the simulation's own
// time axis and are deterministic results, not wall observations).
//
// Outputs (under `<work_dir>/merged/`):
//   timeline.jsonl          "ev" lines tagged with `src` ("dispatcher",
//                           "shard0", "shard0#2" for restart attempts) and
//                           aligned timestamps, plus proc/lane metadata;
//                           tools/trace_query reads it
//   timeline.perfetto       timeline.jsonl rendered by obs::write_perfetto
//                           (obs/perfetto.h), the renderer behind
//                           `trace_query perfetto`: one process per
//                           (source, domain), named "src/domain"; loads in
//                           the Perfetto UI and is SQL-queryable in
//                           trace_processor
//   dispatch_stacks.folded  every stream's folded scope stacks (self
//                           microseconds per scope path), prefixed with
//                           its src, so distributed runs produce one flame
//                           graph like local ones do
//
// The merge is a pure function of the input files: re-running it (a
// dispatcher restarted over the same work dir) writes byte-identical
// outputs.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace dcs::exp {

struct TimelineOptions {
  /// Dispatcher work dir: `dispatcher_telemetry.jsonl` +
  /// `shard_<i>/telemetry_<attempt>.jsonl` streams.
  std::string work_dir;
  std::size_t shards = 0;
  /// Output directory; empty = `<work_dir>/merged`.
  std::string out_dir;
  /// Progress diagnostics; null = silent.
  std::ostream* log = nullptr;
};

struct TimelineSummary {
  /// Telemetry streams merged (dispatcher + one per worker attempt).
  std::size_t sources = 0;
  /// Streams that carried a parsable header (and therefore aligned).
  std::size_t aligned_sources = 0;
  std::size_t events = 0;
  std::size_t stacks = 0;
  /// Earliest header epoch — the merged timeline's wall t=0.
  std::int64_t base_epoch_unix_us = 0;
  std::string jsonl_path;
  std::string perfetto_path;
  /// Empty when no stream carried folded stacks.
  std::string stacks_path;
  /// Non-empty when nothing could be merged or an output failed to write.
  std::string error;

  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};

/// Merges every telemetry stream under `options.work_dir`. Worker-level
/// problems (missing streams, torn lines) degrade silently — the merge
/// covers whatever telemetry exists; only unusable options or unwritable
/// outputs land in `error`.
[[nodiscard]] TimelineSummary merge_timeline(const TimelineOptions& options);

}  // namespace dcs::exp
