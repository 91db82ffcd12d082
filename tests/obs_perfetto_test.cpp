// Perfetto protobuf output: wire-format framing, TrackEvent payloads and
// the renderer's process/track convention on JSONL traces written by the
// stream sink, verified with a small in-test protobuf decoder (the repo
// itself never parses protobuf).
#include "obs/perfetto.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/query.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "util/proto.h"

namespace dcs::obs {
namespace {

// -- minimal protobuf reader -------------------------------------------------

struct Field {
  std::uint32_t number = 0;
  std::uint32_t wire_type = 0;
  std::uint64_t varint = 0;     // wire type 0
  double fixed64 = 0.0;         // wire type 1 (as double)
  std::string bytes;            // wire type 2
};

std::uint64_t read_varint(const std::string& data, std::size_t* pos) {
  std::uint64_t value = 0;
  int shift = 0;
  while (*pos < data.size()) {
    const auto byte = static_cast<unsigned char>(data[(*pos)++]);
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
  ADD_FAILURE() << "truncated varint";
  return value;
}

/// Decodes one message's fields (repeated fields appear repeatedly).
std::vector<Field> decode(const std::string& data) {
  std::vector<Field> fields;
  std::size_t pos = 0;
  while (pos < data.size()) {
    Field f;
    const std::uint64_t tag = read_varint(data, &pos);
    f.number = static_cast<std::uint32_t>(tag >> 3);
    f.wire_type = static_cast<std::uint32_t>(tag & 7u);
    if (f.wire_type == 0) {
      f.varint = read_varint(data, &pos);
    } else if (f.wire_type == 1) {
      EXPECT_LE(pos + 8, data.size());
      std::memcpy(&f.fixed64, data.data() + pos, sizeof(double));
      pos += 8;
    } else if (f.wire_type == 2) {
      const std::uint64_t len = read_varint(data, &pos);
      EXPECT_LE(pos + len, data.size());
      f.bytes = data.substr(pos, len);
      pos += len;
    } else {
      ADD_FAILURE() << "unexpected wire type " << f.wire_type;
      break;
    }
    fields.push_back(std::move(f));
  }
  return fields;
}

const Field* find(const std::vector<Field>& fields, std::uint32_t number) {
  for (const Field& f : fields) {
    if (f.number == number) return &f;
  }
  return nullptr;
}

/// Splits a trace file into TracePacket payloads, asserting the framing:
/// every top-level record is field 1, length-delimited.
std::vector<std::string> split_packets(const std::string& data) {
  std::vector<std::string> packets;
  for (const Field& f : decode(data)) {
    EXPECT_EQ(f.number, 1u) << "top-level field must be TracePacket";
    EXPECT_EQ(f.wire_type, 2u);
    packets.push_back(f.bytes);
  }
  return packets;
}

// TracePacket / TrackDescriptor / TrackEvent field numbers (stable schema).
constexpr std::uint32_t kPacketTimestamp = 8;
constexpr std::uint32_t kPacketTrackEvent = 11;
constexpr std::uint32_t kPacketTrackDescriptor = 60;
constexpr std::uint32_t kTrackUuid = 1;
constexpr std::uint32_t kTrackName = 2;
constexpr std::uint32_t kTrackProcess = 3;
constexpr std::uint32_t kTrackThread = 4;
constexpr std::uint32_t kProcessPid = 1;
constexpr std::uint32_t kProcessName = 6;
constexpr std::uint32_t kThreadName = 5;
constexpr std::uint32_t kEventType = 9;
constexpr std::uint32_t kEventTrackUuid = 11;
constexpr std::uint32_t kEventName = 23;
constexpr std::uint32_t kEventDoubleCounterValue = 44;
constexpr std::uint32_t kEventFlowIds = 47;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

// -- PerfettoWriter ----------------------------------------------------------

TEST(ObsPerfetto, VarintEncodingRoundTrips) {
  for (const std::uint64_t value :
       {0ull, 1ull, 127ull, 128ull, 300ull, 16383ull, 16384ull,
        0xFFFFFFFFull, 0xFFFFFFFFFFFFFFFFull}) {
    std::string bytes;
    proto::append_varint(bytes, value);
    std::size_t pos = 0;
    EXPECT_EQ(read_varint(bytes, &pos), value);
    EXPECT_EQ(pos, bytes.size());
  }
}

TEST(ObsPerfetto, WriterEmitsDescriptorsAndEventsWithSequentialUuids) {
  std::string out;
  PerfettoWriter writer(out);
  const std::uint64_t process = writer.add_process(42, "sim");
  const std::uint64_t thread = writer.add_thread(42, 3, "lane-three");
  const std::uint64_t counter = writer.add_counter(process, "degree");
  EXPECT_EQ(thread, process + 1);
  EXPECT_EQ(counter, process + 2);

  writer.slice_begin(thread, 1000, "work", "cat");
  writer.slice_end(thread, 2500);
  writer.instant(thread, 3000, "mark", "cat");
  writer.counter(counter, 4000, 2.5);
  EXPECT_EQ(writer.packets_written(), 7u);

  const std::vector<std::string> packets = split_packets(out);
  ASSERT_EQ(packets.size(), 7u);

  // Packet 0: process descriptor with pid and name.
  {
    const std::vector<Field> pkt = decode(packets[0]);
    const Field* track = find(pkt, kPacketTrackDescriptor);
    ASSERT_NE(track, nullptr);
    const std::vector<Field> desc = decode(track->bytes);
    EXPECT_EQ(find(desc, kTrackUuid)->varint, process);
    const Field* proc = find(desc, kTrackProcess);
    ASSERT_NE(proc, nullptr);
    const std::vector<Field> pd = decode(proc->bytes);
    EXPECT_EQ(find(pd, kProcessPid)->varint, 42u);
    EXPECT_EQ(find(pd, kProcessName)->bytes, "sim");
  }
  // Packet 1: thread descriptor carrying the lane name.
  {
    const std::vector<Field> desc =
        decode(find(decode(packets[1]), kPacketTrackDescriptor)->bytes);
    EXPECT_EQ(find(desc, kTrackUuid)->varint, thread);
    const std::vector<Field> td = decode(find(desc, kTrackThread)->bytes);
    EXPECT_EQ(find(td, kThreadName)->bytes, "lane-three");
  }
  // Packet 2: counter descriptor named at the track level.
  {
    const std::vector<Field> desc =
        decode(find(decode(packets[2]), kPacketTrackDescriptor)->bytes);
    EXPECT_EQ(find(desc, kTrackUuid)->varint, counter);
    EXPECT_EQ(find(desc, kTrackName)->bytes, "degree");
  }
  // Packets 3..6: slice begin/end, instant, counter sample.
  const auto event_of = [&](std::size_t i) {
    const std::vector<Field> pkt = decode(packets[i]);
    const Field* ev = find(pkt, kPacketTrackEvent);
    EXPECT_NE(ev, nullptr);
    return std::make_pair(decode(ev->bytes),
                          find(pkt, kPacketTimestamp)->varint);
  };
  {
    const auto [ev, ts] = event_of(3);
    EXPECT_EQ(find(ev, kEventType)->varint, 1u);  // TYPE_SLICE_BEGIN
    EXPECT_EQ(find(ev, kEventTrackUuid)->varint, thread);
    EXPECT_EQ(find(ev, kEventName)->bytes, "work");
    EXPECT_EQ(ts, 1000u);
  }
  {
    const auto [ev, ts] = event_of(4);
    EXPECT_EQ(find(ev, kEventType)->varint, 2u);  // TYPE_SLICE_END
    EXPECT_EQ(ts, 2500u);
  }
  {
    const auto [ev, ts] = event_of(5);
    EXPECT_EQ(find(ev, kEventType)->varint, 3u);  // TYPE_INSTANT
    EXPECT_EQ(find(ev, kEventName)->bytes, "mark");
    EXPECT_EQ(ts, 3000u);
  }
  {
    const auto [ev, ts] = event_of(6);
    EXPECT_EQ(find(ev, kEventType)->varint, 4u);  // TYPE_COUNTER
    EXPECT_EQ(find(ev, kEventTrackUuid)->varint, counter);
    EXPECT_EQ(find(ev, kEventDoubleCounterValue)->fixed64, 2.5);
    EXPECT_EQ(ts, 4000u);
  }
}

TEST(ObsPerfetto, IdenticalCallSequencesProduceIdenticalBytes) {
  const auto run = [] {
    std::string out;
    PerfettoWriter writer(out);
    const std::uint64_t p = writer.add_process(1, "sim");
    const std::uint64_t t = writer.add_thread(1, 0, "lane");
    writer.slice_begin(t, 10, "a", "c");
    writer.slice_end(t, 20);
    writer.counter(writer.add_counter(p, "x"), 30, 1.5);
    return out;
  };
  EXPECT_EQ(run(), run()) << "re-rendered traces rely on byte stability";
}

// -- write_perfetto ----------------------------------------------------------

TraceEvent event_with(Domain domain, char phase, double ts_us,
                      const std::string& name) {
  TraceEvent e;
  e.domain = domain;
  e.phase = phase;
  e.ts_us = ts_us;
  e.cat = "test";
  e.name = name;
  return e;
}

/// Renders the JSONL trace at `jsonl` as `trace_query perfetto` does
/// (query::load_trace, then write_perfetto) and returns the packets.
std::vector<std::string> render(const std::string& jsonl) {
  const std::string perfetto = jsonl + ".perfetto";
  EXPECT_TRUE(write_perfetto(query::load_trace(jsonl), perfetto));
  std::vector<std::string> packets = split_packets(read_file(perfetto));
  std::remove(jsonl.c_str());
  std::remove(perfetto.c_str());
  return packets;
}

/// The descriptors and events of a rendered trace, by track uuid.
struct Rendered {
  std::map<std::uint64_t, std::pair<std::uint64_t, std::string>>
      processes;                                        // uuid -> pid, name
  std::map<std::uint64_t, std::vector<std::string>> threads;  // uuid -> names
  std::map<std::uint64_t, std::string> counters;              // uuid -> name
  std::vector<std::vector<Field>> events;
};

Rendered tracks_of(const std::vector<std::string>& packets) {
  Rendered r;
  for (const std::string& payload : packets) {
    const std::vector<Field> pkt = decode(payload);
    if (const Field* track = find(pkt, kPacketTrackDescriptor)) {
      const std::vector<Field> desc = decode(track->bytes);
      const std::uint64_t uuid = find(desc, kTrackUuid)->varint;
      if (const Field* proc = find(desc, kTrackProcess)) {
        const std::vector<Field> pd = decode(proc->bytes);
        r.processes[uuid] = {find(pd, kProcessPid)->varint,
                             find(pd, kProcessName)->bytes};
      } else if (const Field* thread = find(desc, kTrackThread)) {
        r.threads[uuid].push_back(
            find(decode(thread->bytes), kThreadName)->bytes);
      } else if (const Field* name = find(desc, kTrackName)) {
        r.counters[uuid] = name->bytes;
      }
    }
    if (const Field* ev = find(pkt, kPacketTrackEvent)) {
      r.events.push_back(decode(ev->bytes));
    }
  }
  return r;
}

TEST(ObsPerfetto, RendererMapsDomainsLanesAndCountersToTracks) {
  const std::string path = temp_path("perfetto_render.jsonl");
  {
    JsonlStreamSink sink(path, {.buffer_bytes = 32});
    ASSERT_TRUE(sink.ok());
    sink.write_lane_name(Domain::kSim, 0, "named-early");
    sink.write(event_with(Domain::kSim, 'i', 1.0, "tick"));
    TraceEvent span = event_with(Domain::kSim, 'X', 2.0, "span");
    span.dur_us = 5.0;
    sink.write(span);
    TraceEvent sample = event_with(Domain::kWall, 'C', 3.0, "degree");
    sample.args = {arg("value", 2.75)};
    sink.write(sample);
    sink.finalize();
    EXPECT_EQ(sink.events_written(), 3u);  // lane names are not events
  }
  const std::vector<std::string> packets = render(path);
  // sim process + sim thread + wall process + wall counter descriptors,
  // instant + slice begin/end + counter sample events.
  ASSERT_EQ(packets.size(), 8u);
  const Rendered r = tracks_of(packets);

  // An untagged trace: pid 1 is "sim", pid 2 is "wall".
  ASSERT_EQ(r.processes.size(), 2u);
  std::vector<std::pair<std::uint64_t, std::string>> procs;
  for (const auto& [uuid, proc] : r.processes) procs.push_back(proc);
  EXPECT_EQ(procs, (std::vector<std::pair<std::uint64_t, std::string>>{
                       {1, "sim"}, {2, "wall"}}));
  // The lane's name beats the "lane-0" default.
  ASSERT_EQ(r.threads.size(), 1u);
  EXPECT_EQ(r.threads.begin()->second,
            (std::vector<std::string>{"named-early"}));
  ASSERT_EQ(r.counters.size(), 1u);
  EXPECT_EQ(r.counters.begin()->second, "degree");

  ASSERT_EQ(r.events.size(), 4u);
  EXPECT_EQ(find(r.events[0], kEventType)->varint, 3u);  // instant
  EXPECT_EQ(find(r.events[1], kEventType)->varint, 1u);  // slice begin
  EXPECT_EQ(find(r.events[2], kEventType)->varint, 2u);  // slice end
  EXPECT_EQ(find(r.events[3], kEventType)->varint, 4u);  // counter
  EXPECT_EQ(find(r.events[3], kEventDoubleCounterValue)->fixed64, 2.75);
  EXPECT_EQ(find(r.events[3], kEventTrackUuid)->varint,
            r.counters.begin()->first);
}

TEST(ObsPerfetto, RenamedLaneRendersOneTrackUnderItsLastName) {
  const std::string path = temp_path("perfetto_rename.jsonl");
  {
    JsonlStreamSink sink(path);
    // The lane is named, used, then renamed: the stream holds both names.
    sink.write_lane_name(Domain::kSim, 0, "first");
    sink.write(event_with(Domain::kSim, 'i', 1.0, "before"));
    sink.write_lane_name(Domain::kSim, 0, "renamed");
    sink.write(event_with(Domain::kSim, 'i', 2.0, "after"));
    sink.finalize();
  }
  const Rendered r = tracks_of(render(path));
  // One track, declared once, under the lane's last name: a rename never
  // mints a second track.
  ASSERT_EQ(r.threads.size(), 1u);
  EXPECT_EQ(r.threads.begin()->second, (std::vector<std::string>{"renamed"}));
  ASSERT_EQ(r.events.size(), 2u);
  for (const std::vector<Field>& ev : r.events) {
    EXPECT_EQ(find(ev, kEventTrackUuid)->varint, r.threads.begin()->first);
  }
}

TEST(ObsPerfetto, CounterEventsWithoutNumericPayloadAreDropped) {
  const std::string path = temp_path("perfetto_counters.jsonl");
  {
    JsonlStreamSink sink(path);
    TraceEvent e = event_with(Domain::kSim, 'C', 1.0, "track");
    sink.write(e);
    e.args = {arg("note", std::string_view("text"))};
    sink.write(e);
    e.args = {arg("note", std::string_view("text")), arg("value", 4.0)};
    sink.write(e);
    // No "value" key: the first numeric arg qualifies.
    e.args = {arg("degree", 3.5)};
    sink.write(e);
    sink.finalize();
  }
  const Rendered r = tracks_of(render(path));
  ASSERT_EQ(r.counters.size(), 1u);
  std::vector<double> values;
  for (const std::vector<Field>& ev : r.events) {
    values.push_back(find(ev, kEventDoubleCounterValue)->fixed64);
  }
  EXPECT_EQ(values, (std::vector<double>{4.0, 3.5}));
}

TEST(ObsPerfetto, TimestampsSaturateAtTheEndsOfTheNanosecondRange) {
  const std::string path = temp_path("perfetto_saturate.jsonl");
  {
    JsonlStreamSink sink(path);
    for (const double ts_us : {-5.0, 1.5, 1e300}) {
      sink.write(event_with(Domain::kSim, 'i', ts_us, "t"));
    }
    sink.finalize();
  }
  std::vector<std::uint64_t> stamps;
  for (const std::string& payload : render(path)) {
    const std::vector<Field> pkt = decode(payload);
    if (find(pkt, kPacketTrackEvent) != nullptr) {
      stamps.push_back(find(pkt, kPacketTimestamp)->varint);
    }
  }
  EXPECT_EQ(stamps, (std::vector<std::uint64_t>{
                        0, 1500, std::numeric_limits<std::uint64_t>::max()}));
}

/// 64-bit FNV-1a, the flow id of a decision token.
std::uint64_t fnv1a(std::string_view token) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : token) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// The flow ids (TrackEvent field 47, fixed64) of each instant, in order.
std::vector<std::vector<std::uint64_t>> instant_flows(const Rendered& r) {
  std::vector<std::vector<std::uint64_t>> flows;
  for (const std::vector<Field>& ev : r.events) {
    std::vector<std::uint64_t> ids;
    for (const Field& f : ev) {
      if (f.number == kEventFlowIds) {
        ids.push_back(std::bit_cast<std::uint64_t>(f.fixed64));
      }
    }
    flows.push_back(ids);
  }
  return flows;
}

TEST(ObsPerfetto, DecisionFlowIdsLinkEachCauseToItsRecord) {
  const auto decision = [](const std::string& src, const std::string& id,
                           const std::string& cause) {
    std::string line = "{\"t\":\"ev\",";
    if (!src.empty()) line += "\"src\":\"" + src + "\",";
    line += "\"domain\":\"sim\",\"ph\":\"i\",\"ts\":1,\"lane\":0,"
            "\"cat\":\"decision\",\"name\":\"rule\",\"args\":{\"id\":\"" +
            id + "\"";
    if (!cause.empty()) line += ",\"cause\":\"" + cause + "\"";
    return line + "}}\n";
  };
  // An untagged trace: ids hash the bare token, the record's own id first.
  std::string path = temp_path("perfetto_flows.jsonl");
  {
    std::ofstream out(path, std::ios::binary);
    out << decision("", "d0-1", "") << decision("", "d0-2", "d0-1")
        << "{\"t\":\"ev\",\"domain\":\"sim\",\"ph\":\"i\",\"ts\":2,"
           "\"lane\":0,\"cat\":\"fault\",\"name\":\"n\",\"args\":"
           "{\"id\":\"d0-1\"}}\n";
  }
  std::vector<std::vector<std::uint64_t>> flows =
      instant_flows(tracks_of(render(path)));
  ASSERT_EQ(flows.size(), 3u);
  EXPECT_EQ(flows[0], (std::vector<std::uint64_t>{fnv1a("d0-1")}));
  EXPECT_EQ(flows[1],
            (std::vector<std::uint64_t>{fnv1a("d0-2"), fnv1a("d0-1")}));
  EXPECT_TRUE(flows[2].empty()) << "only decision records carry flows";

  // A merged timeline: each src's chain is scoped by its src, so equal ids
  // in two sources never link, and each source is its own process pair.
  path = temp_path("perfetto_flows_merged.jsonl");
  {
    std::ofstream out(path, std::ios::binary);
    out << decision("shard0", "d0-1", "") << decision("shard1", "d0-1", "")
        << decision("shard1", "d0-2", "d0-1");
  }
  const Rendered merged = tracks_of(render(path));
  flows = instant_flows(merged);
  ASSERT_EQ(flows.size(), 3u);
  EXPECT_EQ(flows[0], (std::vector<std::uint64_t>{fnv1a("shard0/d0-1")}));
  EXPECT_EQ(flows[1], (std::vector<std::uint64_t>{fnv1a("shard1/d0-1")}));
  EXPECT_EQ(flows[2], (std::vector<std::uint64_t>{fnv1a("shard1/d0-2"),
                                                  fnv1a("shard1/d0-1")}));
  std::vector<std::pair<std::uint64_t, std::string>> procs;
  for (const auto& [uuid, proc] : merged.processes) procs.push_back(proc);
  EXPECT_EQ(procs, (std::vector<std::pair<std::uint64_t, std::string>>{
                       {1, "shard0/sim"}, {3, "shard1/sim"}}));
}

}  // namespace
}  // namespace dcs::obs
