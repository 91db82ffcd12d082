// Worker telemetry streaming: one crash-safe JSONL file per worker attempt
// carrying everything a supervisor needs to watch — and later merge — a
// shard process: trace events, progress heartbeats, metric snapshots and
// folded scope stacks, under a header that anchors the process's wall
// clock to the Unix epoch (obs::Profiler::epoch_unix_us).
//
// Line schema (`"t"` discriminates; unknown types are skipped by readers so
// the format is forward-extensible):
//
//   {"t":"header","telemetry":1,"name":...,"pid":...,"shard":"i/N",
//    "epoch_unix_us":...}                         exactly once, first line
//   {"t":"ev","domain":...,"ph":...,"ts":...,...} one trace event
//   {"t":"lane","domain":...,"lane":...,"name":...}  lane naming metadata
//   {"t":"hb","wall_us":...,"sweep":...,"done":...,"total":...}
//   {"t":"metric","name":...,"kind":...,"labels":...,"stat":...,"value":...}
//   {"t":"stack","stack":"main;exp.task","count":...}  one scope path's
//                                  self time in whole microseconds
//   {"t":"end","wall_us":...,"events":...}        clean-shutdown marker
//
// The "ev" and "lane" lines are the JSONL trace schema itself: a bench's
// `<name>_trace.jsonl` is exactly those lines, rendered by the same
// detail::append_event_line / append_lane_line (obs/trace.h).
//
// Crash safety is the JSONL property: the file is valid up to the last
// complete line, and TelemetryTail never reads past the last '\n', so a
// worker killed mid-write (the dispatcher's whole job is to kill workers)
// leaves a stream the supervisor still consumes.
//
// Unlike the other file sinks, TelemetrySink is thread-safe: heartbeats
// arrive from sweep worker threads while the merge thread writes events.
// finalize() only flushes — the TraceSink contract's "no writes after
// finalize" is relaxed here because the telemetry stream outlives the trace
// tee it participates in (metrics/stacks/end are appended after the trace
// sinks close). close() writes the end marker and seals the file.
#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace dcs::obs {

struct TelemetryOptions {
  /// Stream identity written into the header.
  std::string name = "worker";
  /// "i/N" shard designation ("" for unsharded processes).
  std::string shard;
};

class TelemetrySink final : public TraceSink {
 public:
  TelemetrySink(const std::string& path, TelemetryOptions options = {});
  ~TelemetrySink() override;

  // TraceSink: events buffer through the ofstream; structural lines
  // (header/heartbeat/metric/stack/end) flush so a tailing supervisor sees
  // them promptly.
  void write(const TraceEvent& event) override;
  void write_lane_name(Domain domain, std::uint32_t lane,
                       const std::string& name) override;
  void finalize() override;
  [[nodiscard]] bool healthy() const override;

  /// Progress heartbeat: `done` of `total` tasks of `sweep` finished.
  /// Callable from any thread (wired to exp::RunnerOptions::on_progress).
  void heartbeat(const std::string& sweep, std::size_t done,
                 std::size_t total);

  /// One "metric" line per scalar instrument / histogram stat in the
  /// registry, deterministic registry order.
  void write_metrics(const MetricsRegistry& registry);

  /// One "stack" line per folded flame-graph stack (obs::folded_stacks).
  void write_stacks(const FoldedStacks& stacks);

  /// Writes the end marker and closes the file. Idempotent; every writer
  /// after close is a silent no-op (drain paths may race process exit).
  void close();

  [[nodiscard]] bool ok() const;
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::size_t events_written() const;

 private:
  void line_locked(std::string_view line, bool flush);

  mutable std::mutex mu_;
  /// Render buffer for "ev"/"lane" lines (detail::append_event_line).
  std::string scratch_;
  std::string path_;
  std::ofstream out_;
  bool ok_ = false;
  bool closed_ = false;
  std::size_t events_ = 0;
};

/// Latest progress heartbeat seen in a telemetry stream.
struct TelemetryHeartbeat {
  double wall_us = 0.0;
  std::string sweep;
  std::size_t done = 0;
  std::size_t total = 0;
};

/// Incremental reader for a telemetry stream another process is appending
/// to. poll() consumes only complete ('\n'-terminated) lines past the last
/// read offset, so a torn trailing line — half-written when the worker was
/// killed, or mid-write right now — is simply not consumed yet; the next
/// poll picks it up once (and if) its newline lands. A missing file is
/// "no data yet", never an error (the worker may not have started). A file
/// that shrank below the read offset was truncated or replaced (worker
/// restart, log rotation): the tail resets to the start and re-reads the
/// new content instead of going silent.
class TelemetryTail {
 public:
  explicit TelemetryTail(std::string path) : path_(std::move(path)) {}

  /// Reads newly completed lines; returns true when anything new arrived.
  bool poll();

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] bool have_header() const noexcept { return have_header_; }
  [[nodiscard]] int pid() const noexcept { return pid_; }
  [[nodiscard]] std::int64_t epoch_unix_us() const noexcept {
    return epoch_unix_us_;
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] bool have_heartbeat() const noexcept {
    return have_heartbeat_;
  }
  [[nodiscard]] const TelemetryHeartbeat& heartbeat() const noexcept {
    return heartbeat_;
  }
  /// True once the clean-shutdown end marker was read.
  [[nodiscard]] bool ended() const noexcept { return ended_; }
  /// Complete lines consumed so far (all types).
  [[nodiscard]] std::size_t lines_read() const noexcept { return lines_; }
  /// "ev" lines consumed so far.
  [[nodiscard]] std::size_t events_seen() const noexcept { return events_; }

 private:
  void consume(std::string_view line);

  std::string path_;
  std::streamoff offset_ = 0;
  bool have_header_ = false;
  int pid_ = 0;
  std::int64_t epoch_unix_us_ = 0;
  std::string name_;
  bool have_heartbeat_ = false;
  TelemetryHeartbeat heartbeat_;
  bool ended_ = false;
  std::size_t lines_ = 0;
  std::size_t events_ = 0;
};

}  // namespace dcs::obs
