#include "obs/perfetto.h"

#include <fstream>
#include <limits>
#include <map>
#include <string_view>
#include <tuple>
#include <utility>

#include "obs/trace.h"
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
  proto::ProtoWriter thread;
  thread.int64(kThreadPid, pid);
  thread.int64(kThreadTid, tid);
  thread.string(kThreadName, name);
  proto::ProtoWriter track;
  track.varint(kTrackUuid, uuid);
  track.message(kTrackThread, thread);
  descriptor_packet(track);
  return uuid;
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

namespace {

/// Nanoseconds for a timestamp in microseconds, saturating: negative and
/// NaN stamps land at 0, stamps past the uint64 range at its end.
std::uint64_t to_ns(double ts_us) {
  const double ns = ts_us * 1e3;
  if (!(ns > 0.0)) return 0;
  if (ns >= 0x1p64) return std::numeric_limits<std::uint64_t>::max();
  return static_cast<std::uint64_t>(ns);
}

/// FNV-1a, 64-bit, of "<scope>/<token>" (of `token` alone when `scope` is
/// empty): deterministic across platforms.
std::uint64_t flow_id(std::string_view scope, std::string_view token) {
  std::uint64_t hash = 14695981039346656037ull;
  const auto mix = [&](std::string_view bytes) {
    for (const char c : bytes) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ull;
    }
  };
  if (!scope.empty()) {
    mix(scope);
    mix("/");
  }
  mix(token);
  return hash;
}

/// Lays a decoded trace out on Perfetto tracks, declaring each track at
/// its first event.
class Renderer {
 public:
  Renderer(const query::TraceData& trace, std::string& out)
      : lane_names_(trace.lane_names), writer_(out) {}

  void event(const query::QueryEvent& e) {
    const Domain domain = e.domain == "wall" ? Domain::kWall : Domain::kSim;
    switch (e.ph) {
      case 'C':
        if (e.has_value) {
          writer_.counter(counter(e, domain), to_ns(e.ts_us), e.value);
        }
        break;
      case 'X': {
        const std::uint64_t track = thread(e, domain);
        writer_.slice_begin(track, to_ns(e.ts_us), e.name, e.cat);
        writer_.slice_end(track, to_ns(e.ts_us + e.dur_us));
        break;
      }
      default:
        writer_.instant(thread(e, domain), to_ns(e.ts_us), e.name, e.cat,
                        e.cat == "decision" ? flows(e)
                                            : std::vector<std::uint64_t>{});
        break;
    }
  }

 private:
  struct Process {
    std::int32_t pid = 0;
    std::uint64_t uuid = 0;
  };

  const Process& process(const std::string& src, Domain domain) {
    const auto key = std::make_pair(src, domain);
    const auto it = processes_.find(key);
    if (it != processes_.end()) return it->second;
    const std::size_t k =
        src_index_.try_emplace(src, src_index_.size()).first->second;
    const auto pid =
        static_cast<std::int32_t>(2 * k + (domain == Domain::kWall ? 2 : 1));
    std::string name(to_string(domain));
    if (!src.empty()) name = src + "/" + name;
    return processes_
        .emplace(key, Process{pid, writer_.add_process(pid, name)})
        .first->second;
  }

  std::uint64_t thread(const query::QueryEvent& e, Domain domain) {
    const auto key = std::make_tuple(e.src, domain, e.lane);
    const auto it = threads_.find(key);
    if (it != threads_.end()) return it->second;
    const std::int32_t pid = process(e.src, domain).pid;
    const auto named = lane_names_.find({e.src, e.domain, e.lane});
    const std::uint64_t uuid = writer_.add_thread(
        pid, static_cast<std::int32_t>(e.lane),
        named != lane_names_.end() ? named->second
                                   : "lane-" + std::to_string(e.lane));
    threads_.emplace(key, uuid);
    return uuid;
  }

  std::uint64_t counter(const query::QueryEvent& e, Domain domain) {
    const auto key = std::make_tuple(e.src, domain, e.name);
    const auto it = counters_.find(key);
    if (it != counters_.end()) return it->second;
    const std::uint64_t uuid =
        writer_.add_counter(process(e.src, domain).uuid, e.name);
    counters_.emplace(key, uuid);
    return uuid;
  }

  static std::vector<std::uint64_t> flows(const query::QueryEvent& e) {
    std::vector<std::uint64_t> ids;
    for (const std::string_view key : {"id", "cause"}) {
      for (const auto& [k, value] : e.args) {
        if (k == key) ids.push_back(flow_id(e.src, value));
      }
    }
    return ids;
  }

  const std::map<std::tuple<std::string, std::string, std::uint32_t>,
                 std::string>& lane_names_;
  PerfettoWriter writer_;
  std::map<std::string, std::size_t> src_index_;
  std::map<std::pair<std::string, Domain>, Process> processes_;
  std::map<std::tuple<std::string, Domain, std::uint32_t>, std::uint64_t>
      threads_;
  std::map<std::tuple<std::string, Domain, std::string>, std::uint64_t>
      counters_;
};

}  // namespace

bool write_perfetto(const query::TraceData& trace, const std::string& path) {
  std::string bytes;
  Renderer renderer(trace, bytes);
  for (const query::QueryEvent& e : trace.events) renderer.event(e);
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  return static_cast<bool>(out);
}

}  // namespace dcs::obs
