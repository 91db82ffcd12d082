#include "exp/timeline.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string_view>
#include <vector>

#include "obs/perfetto.h"
#include "obs/profile.h"
#include "obs/query.h"
#include "obs/trace.h"
#include "util/json.h"

namespace dcs::exp {
namespace {

namespace fs = std::filesystem;

/// One telemetry stream feeding the merge.
struct Source {
  std::string path;
  /// "dispatcher", "shard0", "shard0#2" (restart attempts count from 1).
  std::string src;
  bool have_header = false;
  int pid = 0;
  std::int64_t epoch_unix_us = 0;
  std::string name;
};

/// Reads the header (always the first line) without consuming the stream.
void read_header(Source* source) {
  std::ifstream in(source->path, std::ios::binary);
  std::string line;
  if (!in || !std::getline(in, line)) return;
  try {
    const json::Value v = json::parse(line);
    if (v.find("telemetry") == nullptr) return;
    source->pid = json::read_integer<int>(v.at("pid"));
    source->epoch_unix_us =
        json::read_integer<std::int64_t>(v.at("epoch_unix_us"));
    source->name = v.at("name").as_string();
    source->have_header = true;
  } catch (const std::exception&) {
    // Headerless stream (killed before the first flush): merged unaligned.
  }
}

/// Dispatcher stream first, then each shard's attempts in attempt order —
/// a deterministic ordering so re-merges are byte-identical.
std::vector<Source> collect_sources(const TimelineOptions& options) {
  std::vector<Source> sources;
  std::error_code ec;
  const std::string dispatcher =
      options.work_dir + "/dispatcher_telemetry.jsonl";
  if (fs::is_regular_file(dispatcher, ec)) {
    Source dispatcher_source;
    dispatcher_source.path = dispatcher;
    dispatcher_source.src = "dispatcher";
    sources.push_back(std::move(dispatcher_source));
  }
  for (std::size_t i = 0; i < options.shards; ++i) {
    const std::string dir =
        options.work_dir + "/shard_" + std::to_string(i);
    std::vector<std::string> files;
    for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("telemetry_", 0) == 0 &&
          name.size() > 16 &&
          name.compare(name.size() - 6, 6, ".jsonl") == 0) {
        files.push_back(entry.path().string());
      }
    }
    // Attempt numbers are zero-padded (telemetry_0001.jsonl), so the
    // lexical sort is attempt order.
    std::sort(files.begin(), files.end());
    for (std::size_t a = 0; a < files.size(); ++a) {
      Source source;
      source.path = files[a];
      source.src = "shard" + std::to_string(i);
      if (a > 0) source.src += "#" + std::to_string(a + 1);
      sources.push_back(std::move(source));
    }
  }
  for (Source& s : sources) read_header(&s);
  return sources;
}

std::string render_args(const json::Value& args) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, v] : args.as_object()) {
    if (!first) out += ",";
    first = false;
    out += json::quote(key) + ":";
    switch (v.type()) {
      case json::Value::Type::kNumber:
        out += json::number_to_string(v.as_number());
        break;
      case json::Value::Type::kBool:
        out += v.as_bool() ? "true" : "false";
        break;
      case json::Value::Type::kString:
        out += json::quote(v.as_string());
        break;
      default:
        out += "null";
        break;
    }
  }
  out += "}";
  return out;
}

/// The merge itself: writes timeline.jsonl and folds the stacks.
class Merger {
 public:
  Merger(const std::string& out_dir, TimelineSummary* summary)
      : summary_(summary),
        jsonl_(out_dir + "/timeline.jsonl", std::ios::trunc) {
    summary->jsonl_path = out_dir + "/timeline.jsonl";
  }

  [[nodiscard]] bool ok() const { return static_cast<bool>(jsonl_); }

  void begin(std::size_t sources, std::int64_t base_epoch) {
    base_epoch_ = base_epoch;
    jsonl_ << "{\"t\":\"timeline\",\"timeline\":1,\"sources\":" << sources
           << ",\"base_epoch_unix_us\":" << base_epoch << "}\n";
  }

  void add_source(const Source& source) {
    src_ = source.src;
    offset_us_ = source.have_header
                     ? static_cast<double>(source.epoch_unix_us - base_epoch_)
                     : 0.0;
    jsonl_ << "{\"t\":\"proc\",\"src\":" << json::quote(src_)
           << ",\"pid\":" << source.pid
           << ",\"name\":" << json::quote(source.name)
           << ",\"aligned\":" << (source.have_header ? "true" : "false")
           << ",\"epoch_unix_us\":" << source.epoch_unix_us
           << ",\"offset_us\":" << json::number_to_string(offset_us_)
           << "}\n";
  }

  void consume_line(std::string_view line) {
    json::Value v;
    try {
      v = json::parse(line);
    } catch (const std::exception&) {
      return;  // torn or foreign line
    }
    const json::Value* type = v.find("t");
    if (type == nullptr || !type->is_string()) return;
    const std::string& t = type->as_string();
    try {
      if (t == "ev") {
        event(v);
      } else if (t == "lane") {
        lane_name(v);
      } else if (t == "stack") {
        stacks_[src_ + ";" + v.at("stack").as_string()] +=
            json::read_integer<std::size_t>(v.at("count"));
      }
    } catch (const std::exception&) {
      // Skip malformed lines; the merge covers what it can read.
    }
  }

  [[nodiscard]] const obs::FoldedStacks& stacks() const noexcept {
    return stacks_;
  }

  /// Closes timeline.jsonl; false when a write failed.
  [[nodiscard]] bool finish() {
    jsonl_.close();
    return static_cast<bool>(jsonl_);
  }

 private:
  void lane_name(const json::Value& v) {
    const obs::Domain domain = v.at("domain").as_string() == "wall"
                                   ? obs::Domain::kWall
                                   : obs::Domain::kSim;
    const auto lane = json::read_integer<std::uint32_t>(v.at("lane"));
    const std::string& name = v.at("name").as_string();
    jsonl_ << "{\"t\":\"lane\",\"src\":" << json::quote(src_)
           << ",\"domain\":\"" << obs::to_string(domain)
           << "\",\"lane\":" << lane
           << ",\"name\":" << json::quote(name) << "}\n";
  }

  void event(const json::Value& v) {
    const std::string& domain_name = v.at("domain").as_string();
    const std::string& ph = v.at("ph").as_string();
    if (ph.empty()) return;
    const char phase = ph[0];
    // Wall events shift onto the shared epoch; sim events keep their
    // simulated timestamps (a different axis entirely).
    double ts = v.at("ts").as_number();
    if (domain_name == "wall") ts += offset_us_;
    double dur = 0.0;
    const json::Value* dur_v = v.find("dur");
    if (dur_v != nullptr) dur = dur_v->as_number();
    // A non-finite stamp would reach timeline.jsonl as a marker string
    // that no reader takes for a time: skip the line like any malformed one.
    DCS_REQUIRE(std::isfinite(ts) && std::isfinite(dur),
                "non-finite timestamp");
    const auto lane = json::read_integer<std::uint32_t>(v.at("lane"));
    const std::string& cat = v.at("cat").as_string();
    const std::string& name = v.at("name").as_string();
    const json::Value* args = v.find("args");

    jsonl_ << "{\"t\":\"ev\",\"src\":" << json::quote(src_)
           << ",\"domain\":" << json::quote(domain_name)
           << ",\"ph\":" << json::quote(std::string_view(&phase, 1))
           << ",\"ts\":" << json::number_to_string(ts);
    if (phase == 'X') jsonl_ << ",\"dur\":" << json::number_to_string(dur);
    jsonl_ << ",\"lane\":" << lane
           << ",\"cat\":" << json::quote(cat)
           << ",\"name\":" << json::quote(name);
    if (args != nullptr && args->is_object()) {
      jsonl_ << ",\"args\":" << render_args(*args);
    }
    jsonl_ << "}\n";

    ++summary_->events;
  }

  TimelineSummary* summary_;
  std::ofstream jsonl_;
  std::int64_t base_epoch_ = 0;
  std::string src_;
  double offset_us_ = 0.0;
  obs::FoldedStacks stacks_;
};

}  // namespace

TimelineSummary merge_timeline(const TimelineOptions& options) {
  TimelineSummary summary;
  if (options.work_dir.empty()) {
    summary.error = "timeline: work_dir is required";
    return summary;
  }
  const auto log = [&](const std::string& line) {
    if (options.log != nullptr) *options.log << "[timeline] " << line << "\n";
  };

  const std::vector<Source> sources = collect_sources(options);
  if (sources.empty()) {
    summary.error = "timeline: no telemetry streams under " + options.work_dir;
    return summary;
  }
  summary.sources = sources.size();

  std::int64_t base = 0;
  bool have_base = false;
  for (const Source& s : sources) {
    if (!s.have_header) continue;
    ++summary.aligned_sources;
    if (!have_base || s.epoch_unix_us < base) {
      base = s.epoch_unix_us;
      have_base = true;
    }
  }
  summary.base_epoch_unix_us = base;

  const std::string out_dir =
      options.out_dir.empty() ? options.work_dir + "/merged" : options.out_dir;
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);

  Merger merger(out_dir, &summary);
  if (!merger.ok()) {
    summary.error = "timeline: cannot open outputs under " + out_dir;
    return summary;
  }
  merger.begin(sources.size(), base);
  for (const Source& source : sources) {
    merger.add_source(source);
    std::ifstream in(source.path, std::ios::binary);
    std::string line;
    while (std::getline(in, line)) merger.consume_line(line);
  }
  if (!merger.finish()) {
    summary.error = "timeline: output write failed under " + out_dir;
    return summary;
  }
  // The Perfetto timeline is rendered from the merged JSONL, as
  // `trace_query perfetto` renders any trace.
  summary.perfetto_path = out_dir + "/timeline.perfetto";
  try {
    if (!obs::write_perfetto(obs::query::load_trace(summary.jsonl_path),
                             summary.perfetto_path)) {
      summary.error = "timeline: cannot write " + summary.perfetto_path;
      return summary;
    }
  } catch (const std::exception& e) {
    summary.error = std::string("timeline: ") + e.what();
    return summary;
  }

  summary.stacks = merger.stacks().size();
  if (!merger.stacks().empty()) {
    const std::string stacks_path = out_dir + "/dispatch_stacks.folded";
    std::ofstream stacks(stacks_path, std::ios::trunc);
    obs::write_folded(stacks, merger.stacks());
    stacks.flush();
    if (stacks) {
      summary.stacks_path = stacks_path;
    } else {
      summary.error = "timeline: cannot write " + stacks_path;
      return summary;
    }
  }
  log("merged " + std::to_string(summary.events) + " event(s) from " +
      std::to_string(summary.sources) + " stream(s) (" +
      std::to_string(summary.aligned_sources) + " aligned) -> " +
      summary.jsonl_path);
  return summary;
}

}  // namespace dcs::exp
