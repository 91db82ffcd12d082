#include "obs/perfetto.h"

#include <charconv>
#include <system_error>
#include <utility>

#include "util/proto.h"

namespace dcs::obs {
namespace {

// Perfetto protos, field numbers as of the stable TrackEvent schema.
// Trace
constexpr std::uint32_t kTracePacketField = 1;
// TracePacket
constexpr std::uint32_t kPacketTimestamp = 8;
constexpr std::uint32_t kPacketSequenceId = 10;
constexpr std::uint32_t kPacketTrackEvent = 11;
constexpr std::uint32_t kPacketTrackDescriptor = 60;
// TrackDescriptor
constexpr std::uint32_t kTrackUuid = 1;
constexpr std::uint32_t kTrackName = 2;
constexpr std::uint32_t kTrackProcess = 3;
constexpr std::uint32_t kTrackThread = 4;
constexpr std::uint32_t kTrackParentUuid = 5;
constexpr std::uint32_t kTrackCounter = 8;
// ProcessDescriptor
constexpr std::uint32_t kProcessPid = 1;
constexpr std::uint32_t kProcessName = 6;
// ThreadDescriptor
constexpr std::uint32_t kThreadPid = 1;
constexpr std::uint32_t kThreadTid = 2;
constexpr std::uint32_t kThreadName = 5;
// CounterDescriptor
constexpr std::uint32_t kCounterUnitName = 6;
// TrackEvent
constexpr std::uint32_t kEventCategories = 22;
constexpr std::uint32_t kEventType = 9;
constexpr std::uint32_t kEventTrackUuid = 11;
constexpr std::uint32_t kEventName = 23;
constexpr std::uint32_t kEventDoubleCounterValue = 44;
constexpr std::uint32_t kEventFlowIds = 47;  // repeated fixed64 flow_ids
// TrackEvent.Type
constexpr std::uint64_t kTypeSliceBegin = 1;
constexpr std::uint64_t kTypeSliceEnd = 2;
constexpr std::uint64_t kTypeInstant = 3;
constexpr std::uint64_t kTypeCounter = 4;

/// One writer per file; a fixed sequence id is enough because we never
/// intern state.
constexpr std::uint64_t kSequenceId = 1;

}  // namespace

void PerfettoWriter::packet(const proto::ProtoWriter& payload) {
  proto::append_varint(*out_, (kTracePacketField << 3) | 2u);
  proto::append_varint(*out_, payload.bytes().size());
  out_->append(payload.bytes());
  ++packets_;
}

void PerfettoWriter::descriptor_packet(const proto::ProtoWriter& track) {
  packet_.clear();
  packet_.varint(kPacketSequenceId, kSequenceId);
  packet_.message(kPacketTrackDescriptor, track);
  packet(packet_);
}

proto::ProtoWriter& PerfettoWriter::event(std::uint64_t type,
                                          std::uint64_t track_uuid) {
  event_.clear();
  event_.varint(kEventType, type);
  event_.varint(kEventTrackUuid, track_uuid);
  return event_;
}

void PerfettoWriter::event_packet(std::uint64_t ts_ns) {
  packet_.clear();
  packet_.varint(kPacketTimestamp, ts_ns);
  packet_.varint(kPacketSequenceId, kSequenceId);
  packet_.message(kPacketTrackEvent, event_);
  packet(packet_);
}

std::uint64_t PerfettoWriter::add_process(std::int32_t pid,
                                          const std::string& name) {
  const std::uint64_t uuid = next_uuid_++;
  proto::ProtoWriter process;
  process.int64(kProcessPid, pid);
  process.string(kProcessName, name);
  proto::ProtoWriter track;
  track.varint(kTrackUuid, uuid);
  track.message(kTrackProcess, process);
  descriptor_packet(track);
  return uuid;
}

std::uint64_t PerfettoWriter::add_thread(std::int32_t pid, std::int32_t tid,
                                         const std::string& name) {
  const std::uint64_t uuid = next_uuid_++;
  redeclare_thread(uuid, pid, tid, name);
  return uuid;
}

void PerfettoWriter::redeclare_thread(std::uint64_t uuid, std::int32_t pid,
                                      std::int32_t tid,
                                      const std::string& name) {
  proto::ProtoWriter thread;
  thread.int64(kThreadPid, pid);
  thread.int64(kThreadTid, tid);
  thread.string(kThreadName, name);
  proto::ProtoWriter track;
  track.varint(kTrackUuid, uuid);
  track.message(kTrackThread, thread);
  descriptor_packet(track);
}

std::uint64_t PerfettoWriter::add_counter(std::uint64_t parent_uuid,
                                          const std::string& name,
                                          const std::string& unit) {
  const std::uint64_t uuid = next_uuid_++;
  proto::ProtoWriter counter;
  if (!unit.empty()) counter.string(kCounterUnitName, unit);
  proto::ProtoWriter track;
  track.varint(kTrackUuid, uuid);
  track.string(kTrackName, name);
  track.varint(kTrackParentUuid, parent_uuid);
  track.message(kTrackCounter, counter);
  descriptor_packet(track);
  return uuid;
}

void PerfettoWriter::slice_begin(std::uint64_t track_uuid, std::uint64_t ts_ns,
                                 const std::string& name,
                                 const std::string& category) {
  proto::ProtoWriter& e = event(kTypeSliceBegin, track_uuid);
  e.string(kEventName, name);
  if (!category.empty()) e.string(kEventCategories, category);
  event_packet(ts_ns);
}

void PerfettoWriter::slice_end(std::uint64_t track_uuid, std::uint64_t ts_ns) {
  event(kTypeSliceEnd, track_uuid);
  event_packet(ts_ns);
}

void PerfettoWriter::instant(std::uint64_t track_uuid, std::uint64_t ts_ns,
                             const std::string& name,
                             const std::string& category,
                             const std::vector<std::uint64_t>& flow_ids) {
  proto::ProtoWriter& e = event(kTypeInstant, track_uuid);
  e.string(kEventName, name);
  if (!category.empty()) e.string(kEventCategories, category);
  for (const std::uint64_t flow : flow_ids) e.fixed64(kEventFlowIds, flow);
  event_packet(ts_ns);
}

void PerfettoWriter::counter(std::uint64_t track_uuid, std::uint64_t ts_ns,
                             double value) {
  event(kTypeCounter, track_uuid)
      .fixed64_double(kEventDoubleCounterValue, value);
  event_packet(ts_ns);
}

namespace detail {

bool counter_value(const TraceEvent& event, double* value) {
  const TraceArg* fallback = nullptr;
  for (const TraceArg& a : event.args) {
    if (a.key == "value") {
      fallback = &a;
      break;
    }
    if (fallback == nullptr) fallback = &a;
  }
  if (fallback == nullptr) return false;
  // Args hold pre-rendered JSON literals; only numeric ones qualify.
  const std::string& literal = fallback->value;
  const char* end = literal.data() + literal.size();
  double parsed = 0.0;
  const auto [ptr, ec] = std::from_chars(literal.data(), end, parsed);
  if (ec != std::errc() || ptr != end) return false;
  *value = parsed;
  return true;
}

std::uint64_t flow_id_hash(std::string_view token) noexcept {
  // FNV-1a, 64-bit: deterministic across platforms, no allocation.
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : token) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

namespace {

/// Unwraps a pre-rendered JSON string literal ("d0-1" with quotes) to the
/// raw token; non-string literals pass through unchanged.
std::string_view unquote(std::string_view literal) noexcept {
  if (literal.size() >= 2 && literal.front() == '"' && literal.back() == '"') {
    return literal.substr(1, literal.size() - 2);
  }
  return literal;
}

}  // namespace

std::vector<std::uint64_t> decision_flow_ids(const TraceEvent& event,
                                             std::string_view scope) {
  std::vector<std::uint64_t> flows;
  for (const TraceArg& a : event.args) {
    if (a.key != "id" && a.key != "cause") continue;
    std::string token(scope);
    if (!token.empty()) token.push_back('/');
    token.append(unquote(a.value));
    flows.push_back(flow_id_hash(token));
  }
  return flows;
}

}  // namespace detail

namespace {

std::uint64_t to_ns(double ts_us) {
  return ts_us <= 0.0 ? 0 : static_cast<std::uint64_t>(ts_us * 1e3);
}

}  // namespace

PerfettoStreamSink::PerfettoStreamSink(std::string path,
                                       StreamSinkOptions options)
    : FileStreamSink(std::move(path), options), writer_(buf_) {}

std::uint64_t PerfettoStreamSink::process_uuid(Domain domain) {
  std::uint64_t& uuid = process_uuids_[static_cast<int>(domain)];
  if (uuid == 0) {
    uuid = writer_.add_process(obs::detail::pid_of(domain),
                               std::string(to_string(domain)));
  }
  return uuid;
}

std::uint64_t PerfettoStreamSink::lane_uuid(Domain domain, std::uint32_t lane) {
  const auto key = std::make_pair(domain, lane);
  const auto it = lane_uuids_.find(key);
  if (it != lane_uuids_.end()) return it->second;
  process_uuid(domain);  // declare the process before its first thread
  const std::string* named = lane_name(domain, lane);
  const std::string name =
      named != nullptr ? *named : "lane-" + std::to_string(lane);
  const std::uint64_t uuid = writer_.add_thread(
      obs::detail::pid_of(domain), static_cast<std::int32_t>(lane), name);
  lane_uuids_.emplace(key, uuid);
  return uuid;
}

std::uint64_t PerfettoStreamSink::counter_uuid(Domain domain,
                                               const std::string& name) {
  const auto key = std::make_pair(domain, name);
  const auto it = counter_uuids_.find(key);
  if (it != counter_uuids_.end()) return it->second;
  const std::uint64_t uuid = writer_.add_counter(process_uuid(domain), name);
  counter_uuids_.emplace(key, uuid);
  return uuid;
}

void PerfettoStreamSink::write_lane_name(Domain domain, std::uint32_t lane,
                                         const std::string& name) {
  if (!accepting() || !rename_lane(domain, lane, name)) return;
  // A track that already exists is re-declared under its uuid
  // (trace_processor keeps the latest name); otherwise the name waits for
  // the lane's first event.
  const auto track = lane_uuids_.find({domain, lane});
  if (track != lane_uuids_.end()) {
    writer_.redeclare_thread(track->second, obs::detail::pid_of(domain),
                             static_cast<std::int32_t>(lane), name);
  }
  commit(0);
}

void PerfettoStreamSink::write(const TraceEvent& event) {
  if (!accepting()) return;
  switch (event.phase) {
    case 'C': {
      double value = 0.0;
      if (!detail::counter_value(event, &value)) break;
      writer_.counter(counter_uuid(event.domain, event.name),
                      to_ns(event.ts_us), value);
      break;
    }
    case 'X': {
      const std::uint64_t track = lane_uuid(event.domain, event.lane);
      writer_.slice_begin(track, to_ns(event.ts_us), event.name, event.cat);
      writer_.slice_end(track, to_ns(event.ts_us + event.dur_us));
      break;
    }
    default:
      writer_.instant(lane_uuid(event.domain, event.lane), to_ns(event.ts_us),
                      event.name, event.cat,
                      event.cat == "decision" ? detail::decision_flow_ids(event)
                                              : std::vector<std::uint64_t>{});
      break;
  }
  commit(1);
}

}  // namespace dcs::obs
