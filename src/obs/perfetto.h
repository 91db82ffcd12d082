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
// PerfettoWriter is the low-level encoder (exp/timeline.h drives it
// directly to lay many processes on one timeline); PerfettoStreamSink
// adapts it to the TraceSink interface with the repo's sim/wall process
// convention, so benches stream `<name>_trace.perfetto` next to the JSONL
// file.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/sink.h"
#include "obs/trace.h"
#include "util/proto.h"

namespace dcs::obs {

/// Appends Perfetto TracePacket records to a byte buffer the caller
/// writes out. Track uuids are handed out sequentially, so an identical
/// call sequence produces identical bytes (timeline merges rely on this for
/// byte-stable re-merges).
class PerfettoWriter {
 public:
  explicit PerfettoWriter(std::string& out) : out_(&out) {}

  /// Declares a process track; returns its uuid (parent for thread tracks).
  std::uint64_t add_process(std::int32_t pid, const std::string& name);
  /// Declares a thread track under `pid` (slices and instants land here).
  std::uint64_t add_thread(std::int32_t pid, std::int32_t tid,
                           const std::string& name);
  /// Re-emits a thread-track descriptor under an existing uuid (renames:
  /// trace_processor keeps the latest descriptor per uuid).
  void redeclare_thread(std::uint64_t uuid, std::int32_t pid, std::int32_t tid,
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

/// TraceSink that writes a Perfetto protobuf trace with the repo's process
/// convention (pid 1 = "sim", pid 2 = "wall"; one thread track per lane;
/// 'C' events become one counter track per (domain, name), valued from
/// their "value" arg). Each event is encoded into FileStreamSink's bounded
/// buffer as it arrives; a lane name either names the lane's track when it
/// is first used or re-declares a track that already exists.
class PerfettoStreamSink final : public FileStreamSink {
 public:
  explicit PerfettoStreamSink(std::string path, StreamSinkOptions options = {});

  void write(const TraceEvent& event) override;
  void write_lane_name(Domain domain, std::uint32_t lane,
                       const std::string& name) override;

 private:
  std::uint64_t process_uuid(Domain domain);
  std::uint64_t lane_uuid(Domain domain, std::uint32_t lane);
  std::uint64_t counter_uuid(Domain domain, const std::string& name);

  PerfettoWriter writer_;
  std::uint64_t process_uuids_[2] = {0, 0};
  std::map<std::pair<Domain, std::uint32_t>, std::uint64_t> lane_uuids_;
  std::map<std::pair<Domain, std::string>, std::uint64_t> counter_uuids_;
};

namespace detail {
/// The numeric value of a counter event: its "value" arg if present, else
/// the first arg whose pre-rendered literal parses as a number. Returns
/// false when the event carries no numeric payload.
[[nodiscard]] bool counter_value(const TraceEvent& event, double* value);

/// Deterministic 64-bit flow id for a decision id/cause token (FNV-1a).
[[nodiscard]] std::uint64_t flow_id_hash(std::string_view token) noexcept;

/// Flow ids for a decision record: hashes of its "id" and "cause" arg
/// values (pre-rendered quoted strings; quotes stripped before hashing).
/// `scope` is prepended to each token ("<scope>/<id>") so merged
/// multi-source timelines keep per-source chains distinct. Empty for
/// events without an "id" arg.
[[nodiscard]] std::vector<std::uint64_t> decision_flow_ids(
    const TraceEvent& event, std::string_view scope = {});
}  // namespace detail

}  // namespace dcs::obs
