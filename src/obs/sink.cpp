#include "obs/sink.h"

#include <unistd.h>

#include <utility>

#include "util/json.h"

namespace dcs::obs {

JsonlStreamSink::JsonlStreamSink(std::string path, StreamSinkOptions options)
    : path_(std::move(path)),
      buffer_bytes_(options.buffer_bytes == 0 ? 1 : options.buffer_bytes) {
  out_.open(path_, std::ios::trunc | std::ios::binary);
  ok_ = static_cast<bool>(out_);
}

JsonlStreamSink::~JsonlStreamSink() { finalize(); }

void JsonlStreamSink::commit(std::size_t events) {
  events_written_ += events;
  if (buf_.size() > peak_buffered_) peak_buffered_ = buf_.size();
  if (buf_.size() >= buffer_bytes_) flush();
}

void JsonlStreamSink::flush() {
  out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  out_.flush();
  buf_.clear();
  ++flushes_;
  // Re-check the stream at every flush: a failed write (disk full, unlinked
  // directory) must drop the sink to the failed state now, not at
  // finalize().
  if (!out_) ok_ = false;
}

void JsonlStreamSink::finalize() {
  if (finalized_) return;
  finalized_ = true;
  if (!ok_) return;
  flush();
  out_.close();
  if (!out_) ok_ = false;
}

void JsonlStreamSink::write(const TraceEvent& event) {
  if (!accepting()) return;
  detail::append_event_line(buf_, event);
  buf_ += '\n';
  commit(1);
}

void JsonlStreamSink::write_lane_name(Domain domain, std::uint32_t lane,
                                      const std::string& name) {
  if (!accepting()) return;
  const auto [it, added] = lane_names_.try_emplace({domain, lane}, name);
  if (!added) {
    if (it->second == name) return;
    it->second = name;
  }
  detail::append_lane_line(buf_, domain, lane, name);
  buf_ += '\n';
  commit(0);
}

TelemetrySink::TelemetrySink(std::string path, TelemetryOptions options)
    : JsonlStreamSink(std::move(path)) {
  if (!ok()) return;
  buf_ += "{\"t\":\"header\",\"telemetry\":1,\"name\":";
  json::append_string(buf_, options.name);
  buf_ += ",\"pid\":" + std::to_string(::getpid()) + ",\"shard\":";
  json::append_string(buf_, options.shard);
  buf_ += ",\"epoch_unix_us\":" +
          std::to_string(Profiler::instance().epoch_unix_us()) + "}\n";
  flush();
}

void TelemetrySink::write_stacks(const FoldedStacks& stacks) {
  if (!accepting()) return;
  for (const auto& [stack, count] : stacks) {
    buf_ += "{\"t\":\"stack\",\"stack\":";
    json::append_string(buf_, stack);
    buf_ += ",\"count\":" + std::to_string(count) + "}\n";
    commit(0);
  }
}

}  // namespace dcs::obs
