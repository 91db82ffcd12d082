#include "exp/checkpoint.h"

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/check.h"
#include "util/json.h"

namespace dcs::exp {
namespace {

constexpr int kVersion = 1;

std::uint64_t parse_u64(const std::string& s, const char* what) {
  DCS_REQUIRE(!s.empty(), std::string("checkpoint: empty ") + what);
  std::uint64_t v = 0;
  for (const char c : s) {
    DCS_REQUIRE(c >= '0' && c <= '9',
                std::string("checkpoint: malformed ") + what + " '" + s + "'");
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

std::string header_line(const std::string& sweep, std::uint64_t base_seed,
                        std::size_t task_count,
                        const std::vector<std::string>& metrics) {
  std::ostringstream out;
  out << "{\"checkpoint\": " << json::quote(sweep)
      << ", \"version\": " << kVersion << ", \"base_seed\": \""
      << base_seed << "\", \"task_count\": " << task_count
      << ", \"metrics\": [";
  for (std::size_t m = 0; m < metrics.size(); ++m) {
    out << (m == 0 ? "" : ", ") << json::quote(metrics[m]);
  }
  out << "]}";
  return out.str();
}

std::string row_line(std::size_t index, std::uint64_t seed,
                     const std::vector<double>& row) {
  std::ostringstream out;
  out << "{\"index\": " << index << ", \"seed\": \"" << seed
      << "\", \"row\": [";
  for (std::size_t m = 0; m < row.size(); ++m) {
    out << (m == 0 ? "" : ", ") << json::number_to_string(row[m]);
  }
  out << "]}";
  return out.str();
}

/// Rows must match bit-for-bit across shards/attempts (NaN == NaN here:
/// identical bits, not IEEE comparison).
bool bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

void parse_header(const json::Value& doc, CheckpointData* data) {
  data->sweep = doc.at("checkpoint").as_string();
  const double version = doc.at("version").as_number();
  if (version != kVersion) {
    throw std::invalid_argument("checkpoint: unsupported version " +
                                std::to_string(version));
  }
  data->base_seed = parse_u64(doc.at("base_seed").as_string(), "base_seed");
  data->task_count = json::read_integer<std::size_t>(doc.at("task_count"));
  for (const json::Value& m : doc.at("metrics").as_array()) {
    data->metrics.push_back(m.as_string());
  }
}

}  // namespace

CheckpointData load_checkpoint(const std::string& path) {
  CheckpointData data;
  std::ifstream in(path);
  if (!in) return data;  // missing file: fresh start
  // An existing but empty file is also a fresh start, not an error: a
  // worker killed between opening the file and flushing the header leaves
  // exactly this state, and must restart cleanly.
  if (in.peek() == std::ifstream::traits_type::eof()) return data;
  data.present = true;

  std::string line;
  bool have_header = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    json::Value doc;
    try {
      doc = json::parse(line);
    } catch (const std::exception&) {
      if (!have_header) throw;  // malformed header: a real error
      break;  // torn trailing line from a mid-append kill: resume re-runs it
    }
    if (!have_header) {
      parse_header(doc, &data);
      have_header = true;
      continue;
    }
    // A row whose shape is wrong is treated like a torn line too: anything
    // after the corruption point is unreachable on a line-oriented scan.
    if (!doc.has("index") || !doc.has("seed") || !doc.has("row")) break;
    std::size_t index = 0;
    try {
      index = json::read_integer<std::size_t>(doc.at("index"));
    } catch (const std::invalid_argument&) {
      break;
    }
    if (index >= data.task_count) break;
    std::vector<double> row;
    for (const json::Value& v : doc.at("row").as_array()) {
      row.push_back(json::read_number(v));
    }
    data.seeds[index] = parse_u64(doc.at("seed").as_string(), "seed");
    data.rows[index] = std::move(row);
  }
  if (!have_header) {
    throw std::invalid_argument("checkpoint: " + path + " has no header line");
  }
  return data;
}

void require_matches(const CheckpointData& data, const SweepSpec& spec,
                     const std::vector<std::string>& metrics) {
  DCS_REQUIRE(data.present, "checkpoint: validating an absent checkpoint");
  DCS_REQUIRE(data.sweep == spec.name(),
              "checkpoint belongs to sweep '" + data.sweep +
                  "', expected '" + spec.name() + "'");
  DCS_REQUIRE(data.base_seed == spec.base_seed(),
              "checkpoint base seed does not match sweep '" + spec.name() +
                  "' (the grid was re-seeded; delete the stale checkpoint)");
  DCS_REQUIRE(data.task_count == spec.task_count(),
              "checkpoint covers " + std::to_string(data.task_count) +
                  " tasks, sweep '" + spec.name() + "' has " +
                  std::to_string(spec.task_count()) +
                  " (the grid changed; delete the stale checkpoint)");
  DCS_REQUIRE(data.metrics == metrics,
              "checkpoint metrics do not match sweep '" + spec.name() + "'");
  const std::vector<SweepSpec::Task> tasks = spec.tasks();
  for (const auto& [index, row] : data.rows) {
    DCS_REQUIRE(row.size() == metrics.size(),
                "checkpoint row " + std::to_string(index) +
                    " has the wrong metric count");
    const auto seed = data.seeds.find(index);
    DCS_REQUIRE(seed != data.seeds.end() &&
                    seed->second == tasks[index].seed,
                "checkpoint row " + std::to_string(index) +
                    " was produced under a different seed");
  }
}

void write_checkpoint(std::ostream& out, const CheckpointData& data) {
  out << header_line(data.sweep, data.base_seed, data.task_count,
                     data.metrics)
      << "\n";
  for (const auto& [index, row] : data.rows) {
    const auto seed = data.seeds.find(index);
    out << row_line(index, seed != data.seeds.end() ? seed->second : 0, row)
        << "\n";
  }
}

bool write_checkpoint_atomic(const std::string& path,
                             const CheckpointData& data) {
  // Write the whole document to a sibling temp file first: rename(2) within
  // one directory is atomic, so readers (and later resumes) only ever see
  // the previous file or the complete new one, never a truncated hybrid —
  // even if we crash or the disk fills mid-write.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (out) write_checkpoint(out, data);
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

CheckpointData merge_checkpoints(const std::vector<CheckpointData>& shards) {
  if (shards.empty()) {
    throw std::invalid_argument("merge_checkpoints: no shards to merge");
  }
  CheckpointData merged;
  for (const CheckpointData& shard : shards) {
    if (!shard.present) {
      throw std::invalid_argument("merge_checkpoints: absent shard");
    }
    if (!merged.present) {
      merged = shard;
      continue;
    }
    if (shard.sweep != merged.sweep || shard.base_seed != merged.base_seed ||
        shard.task_count != merged.task_count ||
        shard.metrics != merged.metrics) {
      throw std::invalid_argument(
          "merge_checkpoints: shard headers disagree (sweep '" + shard.sweep +
          "' vs '" + merged.sweep + "')");
    }
    for (const auto& [index, row] : shard.rows) {
      const auto it = merged.rows.find(index);
      if (it != merged.rows.end() && !bit_equal(it->second, row)) {
        throw std::invalid_argument(
            "merge_checkpoints: shards disagree on task " +
            std::to_string(index));
      }
      merged.rows[index] = row;
      merged.seeds[index] = shard.seeds.at(index);
    }
  }
  return merged;
}

CheckpointWriter::CheckpointWriter(const std::string& path,
                                   const SweepSpec& spec,
                                   const std::vector<std::string>& metrics)
    : path_(path) {
  // An append to an existing checkpoint continues after the rows
  // load_checkpoint already returned. A kill mid-append leaves a torn last
  // line, where that load stopped: cut the file back to its last newline
  // first, or the first appended row would share the torn line and every
  // later load would stop there too. A file without a complete line starts
  // afresh, header first.
  std::size_t complete = 0;  // bytes up to and including the last newline
  {
    std::ifstream probe(path_, std::ios::binary);
    const std::string text{std::istreambuf_iterator<char>(probe), {}};
    const std::size_t newline = text.rfind('\n');
    if (newline != std::string::npos) complete = newline + 1;
    if (complete < text.size()) {
      std::error_code error;
      std::filesystem::resize_file(path_, complete, error);
      if (error) return;  // ok_ stays false
    }
  }
  const bool fresh = complete == 0;
  out_.open(path_, std::ios::app);
  ok_ = static_cast<bool>(out_);
  if (ok_ && fresh) {
    out_ << header_line(spec.name(), spec.base_seed(), spec.task_count(),
                        metrics)
         << "\n";
    out_.flush();
    ok_ = static_cast<bool>(out_);
  }
}

void CheckpointWriter::append(std::size_t index, std::uint64_t seed,
                              const std::vector<double>& row) {
  const std::string line = row_line(index, seed, row);
  const std::lock_guard<std::mutex> lock(mu_);
  if (!ok_) return;
  // Flush per line (the JSONL crash-safety discipline of obs/sink.h): the
  // file is valid up to the last completed task no matter when we die, and
  // a failed write drops the writer to the failed state immediately.
  out_ << line << "\n";
  out_.flush();
  if (!out_) ok_ = false;
}

}  // namespace dcs::exp
