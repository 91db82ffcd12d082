#include "obs/trace.h"

#include <charconv>
#include <cstdio>
#include <system_error>
#include <utility>

#include "util/check.h"
#include "util/json.h"

namespace dcs::obs {
namespace detail {

void append_number(std::string& out, double v) {
  // Shortest round-trip form (strtod recovers the exact bits, like %.17g)
  // via to_chars: ~7x cheaper than snprintf, which matters because arg()
  // renders eagerly on the controller's tracing hot path.
  char buf[40];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  if (res.ec != std::errc()) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
    return;
  }
  out.append(buf, res.ptr);
}

std::string render_number(double v) {
  std::string out;
  append_number(out, v);
  return out;
}

namespace {

void append_uint(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

}  // namespace

void append_event_line(std::string& out, const TraceEvent& e) {
  out += "{\"t\":\"ev\",\"domain\":\"";
  out += to_string(e.domain);
  out += "\",\"ph\":\"";
  out += e.phase;
  out += "\",\"ts\":";
  append_number(out, e.ts_us);
  if (e.phase == 'X') {
    out += ",\"dur\":";
    append_number(out, e.dur_us);
  }
  out += ",\"lane\":";
  append_uint(out, e.lane);
  out += ",\"cat\":";
  json::append_string(out, e.cat);
  out += ",\"name\":";
  json::append_string(out, e.name);
  if (!e.args.empty()) {
    out += ",\"args\":{";
    for (std::size_t i = 0; i < e.args.size(); ++i) {
      if (i != 0) out += ',';
      json::append_string(out, e.args[i].key);
      out += ':';
      out += e.args[i].value;
    }
    out += '}';
  }
  out += '}';
}

void append_lane_line(std::string& out, Domain domain, std::uint32_t lane,
                      std::string_view name) {
  out += "{\"t\":\"lane\",\"domain\":\"";
  out += to_string(domain);
  out += "\",\"lane\":";
  append_uint(out, lane);
  out += ",\"name\":";
  json::append_string(out, name);
  out += '}';
}

}  // namespace detail

std::string_view to_string(Domain domain) noexcept {
  return domain == Domain::kSim ? "sim" : "wall";
}

TraceArg arg(std::string key, double value) {
  return TraceArg{std::move(key), detail::render_number(value)};
}

TraceArg arg(std::string key, std::string_view value) {
  return TraceArg{std::move(key), json::quote(value)};
}

TraceArg arg(std::string key, bool value) {
  return TraceArg{std::move(key), value ? "true" : "false"};
}

void Tracer::instant(Duration t, std::string_view cat, std::string_view name,
                     std::vector<TraceArg> args) {
  TraceEvent e;
  e.domain = Domain::kSim;
  e.phase = 'i';
  e.ts_us = t.sec() * 1e6;
  e.lane = lane_;
  e.cat = cat;
  e.name = name;
  e.args = std::move(args);
  append(std::move(e));
}

void Tracer::append(const TraceEvent& event) {
  ++counts_[static_cast<int>(event.domain)];
  if (sink_ != nullptr) {
    sink_->write(event);
    return;
  }
  events_.push_back(event);
}

void Tracer::append(TraceEvent&& event) {
  if (sink_ != nullptr) {
    append(static_cast<const TraceEvent&>(event));
    return;
  }
  ++counts_[static_cast<int>(event.domain)];
  events_.push_back(std::move(event));
}

void Tracer::merge_from(Tracer&& other) {
  DCS_REQUIRE(&other != this, "cannot merge a tracer into itself");
  if (sink_ == nullptr) {
    events_.reserve(events_.size() + other.events_.size());
  }
  for (TraceEvent& e : other.events_) append(std::move(e));
  for (auto& [key, name] : other.lane_names_) {
    name_lane(key.first, key.second, std::move(name));
  }
  // Leave the source empty so a double merge cannot silently duplicate the
  // stream (it would previously re-append every event).
  other.clear();
}

void Tracer::name_lane(Domain domain, std::uint32_t lane, std::string name) {
  if (sink_ != nullptr) {
    sink_->write_lane_name(domain, lane, name);
    return;
  }
  lane_names_.insert_or_assign({domain, lane}, std::move(name));
}

void Tracer::clear() {
  events_.clear();
  lane_names_.clear();
  counts_[0] = counts_[1] = 0;
}

}  // namespace dcs::obs
