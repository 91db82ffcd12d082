// Streaming trace sinks: bounded-memory file writers behind the
// obs::TraceSink interface, so day-long traces (fig01's 24 h of counter
// tracks, 100k+-event sweeps) never have to fit in the Tracer.
//
// A sink renders each event into its byte buffer the moment it arrives and
// writes the buffer to the file once it holds `buffer_bytes`, so peak
// memory is that bound plus one rendered record, whatever the trace
// length. The buffer only ever holds whole JSONL lines, so a file cut
// short by a crash ends on a line boundary up to the last write, and
// readers (obs/query.h, the timeline merge) skip at most a torn last line.
// JSONL is the one encoding a traced run writes: Perfetto files are
// rendered from it afterwards (obs/perfetto.h, `trace_query perfetto`).
//
// Sinks are not thread-safe (same contract as Tracer): one sink fed by one
// thread, typically the merge thread of a sweep or a single-run bench.
#pragma once

#include <cstddef>
#include <fstream>
#include <map>
#include <ostream>
#include <string>

#include "obs/profile.h"
#include "obs/trace.h"

namespace dcs::obs {

struct StreamSinkOptions {
  /// Rendered bytes held before they are written to the file (bounds peak
  /// memory at this plus one record).
  std::size_t buffer_bytes = std::size_t{1} << 20;
};

/// Streams the JSONL trace to `path`: one telemetry-schema "ev" line per
/// event and one "lane" line per new lane name, in arrival order
/// (detail::append_event_line / append_lane_line). No header, so the file
/// is a pure function of the event stream. Each line is rendered into
/// `buf_`, which is written out once it reaches `buffer_bytes`; a failed
/// write drops the sink to not-ok at once.
class JsonlStreamSink : public TraceSink {
 public:
  explicit JsonlStreamSink(std::string path, StreamSinkOptions options = {});
  JsonlStreamSink(const JsonlStreamSink&) = delete;
  JsonlStreamSink& operator=(const JsonlStreamSink&) = delete;
  ~JsonlStreamSink() override;

  void write(const TraceEvent& event) override;
  void write_lane_name(Domain domain, std::uint32_t lane,
                       const std::string& name) override;
  /// Writes what is buffered and closes the file. Idempotent.
  void finalize() final;

  [[nodiscard]] bool healthy() const override { return ok_; }
  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  /// Events rendered (lane names and other metadata lines not counted).
  [[nodiscard]] std::size_t events_written() const noexcept {
    return events_written_;
  }
  /// High-water mark of the render buffer in bytes — tests assert it stays
  /// within StreamSinkOptions::buffer_bytes plus one line.
  [[nodiscard]] std::size_t peak_buffered_bytes() const noexcept {
    return peak_buffered_;
  }
  [[nodiscard]] std::size_t flush_count() const noexcept { return flushes_; }

 protected:
  /// False once the sink is finalized or failed: writers return early.
  [[nodiscard]] bool accepting() const noexcept { return ok_ && !finalized_; }
  /// Call after appending whole lines to buf_; `events` of them were
  /// trace events. Writes the buffer out once it reaches the bound.
  void commit(std::size_t events);
  /// Writes the buffer to the file now.
  void flush();

  std::string buf_;

 private:
  /// Each lane's latest name: a repeat of it writes nothing (task-order
  /// merging re-registers lanes).
  std::map<std::pair<Domain, std::uint32_t>, std::string> lane_names_;
  std::ofstream out_;
  std::string path_;
  std::size_t buffer_bytes_;
  bool ok_ = false;
  bool finalized_ = false;
  std::size_t events_written_ = 0;
  std::size_t peak_buffered_ = 0;
  std::size_t flushes_ = 0;
};

struct TelemetryOptions {
  /// Stream identity written into the header.
  std::string name = "worker";
  /// "i/N" shard designation ("" for unsharded processes).
  std::string shard;
};

/// A worker's telemetry stream (telemetry=<path>, one file per dispatcher
/// attempt): the JSONL trace lines under a header, plus the process's
/// folded scope stacks. Line types (`"t"` discriminates; readers skip
/// types they do not know):
///
///   {"t":"header","telemetry":1,"name":...,"pid":...,"shard":"i/N",
///    "epoch_unix_us":...}                  first line, flushed on open
///   {"t":"ev",...} / {"t":"lane",...}       exactly as JsonlStreamSink
///   {"t":"stack","stack":"main;exp.task","count":...}  one scope path's
///                                  self time in whole microseconds
///
/// The header anchors the process's wall clock to the Unix epoch
/// (Profiler::epoch_unix_us), so exp/timeline.h aligns every stream on one
/// axis; it is on disk before the run does any work, so an attempt the
/// dispatcher kills still aligns. Everything after it reaches the file
/// when the buffer fills or at finalize: a killed worker loses its
/// buffered lines, as its trace files do.
class TelemetrySink final : public JsonlStreamSink {
 public:
  explicit TelemetrySink(std::string path, TelemetryOptions options = {});

  /// One "stack" line per folded stack (obs::folded_stacks); call before
  /// finalize().
  void write_stacks(const FoldedStacks& stacks);
};

}  // namespace dcs::obs
