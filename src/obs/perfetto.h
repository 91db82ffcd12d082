// Perfetto protobuf trace output: hand-rolled TracePacket/TrackEvent
// encoding (util/proto.h — no protobuf dependency). The files load in the
// Perfetto UI and are SQL-queryable in Perfetto's trace_processor.
//
// A Perfetto trace file is a sequence of length-delimited TracePacket
// records (field 1 of the Trace message). We emit:
//   * TrackDescriptor packets declaring process tracks (pid + name),
//     thread tracks (one per lane) and counter tracks;
//   * TrackEvent packets: TYPE_SLICE_BEGIN/END pairs for 'X' spans,
//     TYPE_INSTANT for 'i' events and TYPE_COUNTER with
//     double_counter_value for 'C' samples.
// Names and categories are emitted inline (no interning) — simpler, and
// these traces are written once and queried offline.
//
// Nothing renders Perfetto while a run is traced: runs stream JSONL only
// (obs/sink.h), and write_perfetto renders a JSONL trace afterwards, as
// decoded by obs/query.h. It is the one place that knows the track
// convention, behind `trace_query perfetto <trace.jsonl>` and the merged
// `timeline.perfetto` of a dispatch (exp/timeline.h). PerfettoWriter is its
// low-level encoder.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/query.h"
#include "util/proto.h"

namespace dcs::obs {

/// Appends Perfetto TracePacket records to a byte buffer the caller
/// writes out. Track uuids are handed out sequentially, so an identical
/// call sequence produces identical bytes (re-rendering a trace, or
/// re-merging a timeline, gives the same file).
class PerfettoWriter {
 public:
  explicit PerfettoWriter(std::string& out) : out_(&out) {}

  /// Declares a process track; returns its uuid (parent for thread tracks).
  std::uint64_t add_process(std::int32_t pid, const std::string& name);
  /// Declares a thread track under `pid` (slices and instants land here).
  std::uint64_t add_thread(std::int32_t pid, std::int32_t tid,
                           const std::string& name);
  /// Declares a counter track under a process track.
  std::uint64_t add_counter(std::uint64_t parent_uuid, const std::string& name,
                            const std::string& unit = "");

  void slice_begin(std::uint64_t track_uuid, std::uint64_t ts_ns,
                   const std::string& name, const std::string& category);
  void slice_end(std::uint64_t track_uuid, std::uint64_t ts_ns);
  /// `flow_ids` (TrackEvent.flow_ids, repeated fixed64) connect instants
  /// into Perfetto flow arrows — decision records pass hashes of their
  /// id/cause strings so causal chains render as arrows in the UI.
  void instant(std::uint64_t track_uuid, std::uint64_t ts_ns,
               const std::string& name, const std::string& category,
               const std::vector<std::uint64_t>& flow_ids = {});
  void counter(std::uint64_t track_uuid, std::uint64_t ts_ns, double value);

  [[nodiscard]] std::size_t packets_written() const noexcept {
    return packets_;
  }

 private:
  /// Starts a TrackEvent of `type` on `track_uuid` in the reused scratch.
  proto::ProtoWriter& event(std::uint64_t type, std::uint64_t track_uuid);
  /// Frames the scratch TrackEvent into a timestamped packet.
  void event_packet(std::uint64_t ts_ns);
  void descriptor_packet(const proto::ProtoWriter& track);
  void packet(const proto::ProtoWriter& payload);

  std::string* out_;
  std::uint64_t next_uuid_ = 1;
  std::size_t packets_ = 0;
  // Scratch messages reused across packets: no allocation per event once
  // they have grown.
  proto::ProtoWriter event_;
  proto::ProtoWriter packet_;
};

/// Writes `trace` (query::load_trace) to `path` as a Perfetto trace with
/// the repo's track convention:
///   * one process per (src, domain): pids 2k+1 ("sim") and 2k+2 ("wall"),
///     k counting srcs in order of their first event, named "sim"/"wall"
///     in an untagged trace (pids 1 and 2) and "src/domain" in a merged
///     timeline;
///   * one thread track per lane (tid = lane), named with the lane's last
///     name (TraceData::lane_names) or "lane-<n>";
///   * one counter track per (src, domain, counter name), valued from
///     QueryEvent::value; samples without a value are dropped;
///   * decision instants carry flow ids, FNV-1a hashes of their "id" and
///     "cause" args ("<src>/<token>" in a merged timeline), so each record
///     links to the records it causes.
/// Each track is declared once, at its first event, so a trace always
/// renders to the same bytes. Timestamps become nanoseconds, saturating at
/// 0 and at 2^64 - 1. Returns false when `path` cannot be written.
[[nodiscard]] bool write_perfetto(const query::TraceData& trace,
                                  const std::string& path);

}  // namespace dcs::obs
