// Streaming trace sinks: bounded-memory file writers behind the
// obs::TraceSink interface, so day-long traces (fig01's 24 h of counter
// tracks, 100k+-event sweeps) never have to fit in the Tracer.
//
// A sink renders each event into its byte buffer the moment it arrives and
// writes the buffer to the file once it holds `buffer_bytes`, so peak
// memory is that bound plus one rendered record, whatever the trace
// length. The buffer only ever holds whole records — JSONL lines or
// Perfetto packets — so a file cut short by a crash ends on a record
// boundary up to the last write, and readers (obs/query.h, TelemetryTail)
// skip at most a torn last line.
//
// Sinks are not thread-safe (same contract as Tracer): one sink fed by one
// thread, typically the merge thread of a sweep or a single-run bench.
#pragma once

#include <cstddef>
#include <fstream>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace dcs::obs {

struct StreamSinkOptions {
  /// Rendered bytes held before they are written to the file (bounds peak
  /// memory at this plus one record).
  std::size_t buffer_bytes = std::size_t{1} << 20;
};

/// Common machinery of the file-backed sinks: the render buffer, its
/// bounded flush, health tracking and finalize. Derived sinks append one
/// whole record to `buf_` per call and then call commit().
class FileStreamSink : public TraceSink {
 public:
  FileStreamSink(const FileStreamSink&) = delete;
  FileStreamSink& operator=(const FileStreamSink&) = delete;
  ~FileStreamSink() override;

  /// Writes what is buffered and closes the file. Idempotent.
  void finalize() final;

  [[nodiscard]] bool healthy() const override { return ok_; }
  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  /// Events rendered (lane names and other metadata records not counted).
  [[nodiscard]] std::size_t events_written() const noexcept {
    return events_written_;
  }
  /// High-water mark of the render buffer in bytes — tests assert it stays
  /// within StreamSinkOptions::buffer_bytes plus one record.
  [[nodiscard]] std::size_t peak_buffered_bytes() const noexcept {
    return peak_buffered_;
  }
  [[nodiscard]] std::size_t flush_count() const noexcept { return flushes_; }

 protected:
  FileStreamSink(std::string path, StreamSinkOptions options);

  /// False once the sink is finalized or failed: writers return early.
  [[nodiscard]] bool accepting() const noexcept { return ok_ && !finalized_; }
  /// Call after appending whole records to buf_; `events` of them were
  /// trace events. Writes the buffer out once it reaches the bound.
  void commit(std::size_t events);
  /// Records `name` for the lane; false when the lane already has that
  /// name (task-order merging re-registers lanes, and a repeat writes
  /// nothing).
  bool rename_lane(Domain domain, std::uint32_t lane, const std::string& name);
  /// The lane's latest name, or null when it has none.
  [[nodiscard]] const std::string* lane_name(Domain domain,
                                             std::uint32_t lane) const;

  std::string buf_;

 private:
  void flush();

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

/// Streams the JSONL trace to `path`: one telemetry-schema "ev" line per
/// event and one "lane" line per new lane name, in arrival order
/// (detail::append_event_line / append_lane_line). No header, so the file
/// is a pure function of the event stream.
class JsonlStreamSink final : public FileStreamSink {
 public:
  explicit JsonlStreamSink(std::string path, StreamSinkOptions options = {});

  void write(const TraceEvent& event) override;
  void write_lane_name(Domain domain, std::uint32_t lane,
                       const std::string& name) override;
};

/// Fans one event stream out to several sinks: the bench glue's JSONL and
/// Perfetto files plus, when open, the worker telemetry stream. Does not
/// own the sinks.
class TeeSink final : public TraceSink {
 public:
  explicit TeeSink(std::vector<TraceSink*> sinks) : sinks_(std::move(sinks)) {}

  void write(const TraceEvent& event) override {
    for (TraceSink* s : sinks_) s->write(event);
  }
  void write_lane_name(Domain domain, std::uint32_t lane,
                       const std::string& name) override {
    for (TraceSink* s : sinks_) s->write_lane_name(domain, lane, name);
  }
  void finalize() override {
    for (TraceSink* s : sinks_) s->finalize();
  }
  /// Unhealthy as soon as any fanned-out sink is: a partial failure (one
  /// file on a full disk) must not read as overall success.
  [[nodiscard]] bool healthy() const override {
    for (const TraceSink* s : sinks_) {
      if (!s->healthy()) return false;
    }
    return true;
  }

 private:
  std::vector<TraceSink*> sinks_;
};

/// Writes a buffered tracer's lane names and events to
/// `<dir>/<name>_trace.jsonl` and `<dir>/<name>_trace.perfetto` through the
/// stream sinks, so buffered and streamed runs produce the same encodings.
/// Returns false (after a diagnostic on `diag`) when a file cannot be
/// written.
bool export_trace(const std::string& dir, const std::string& name,
                  const Tracer& tracer, std::ostream* diag = nullptr);

}  // namespace dcs::obs
