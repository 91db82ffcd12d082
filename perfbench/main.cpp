// perfbench: runs one benchmark workload for a fixed time and prints its
// metrics, ending with one JSON line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scratch DIR] [--spans FILE]
//
// Sweeps run on nproc - 1 workers (1 to 3), so one CPU stays free for the
// kernel and the launcher instead of preempting a worker mid-run. After
// one untimed warm-up pass it repeats passes until S seconds have gone by
// (at least three, or two of each kind when tracing) and reports medians,
// and p90 for the run-time tail; each pass starts on the next CPU in turn
// (next_cpu). --trace 0 reports the end-to-end metrics with the
// benchmark's spans off. --trace 1 alternates passes with spans on and off
// and reports the per-layer metrics, the pass time no span covers, and the
// spans' own overhead (traced against untraced pass wall time); --spans
// appends the traced passes' spans to FILE as JSON lines. Every pass is
// checked, and a pass whose result digest differs from the warm-up's is a
// failure.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "perfbench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  bool trace = false;
  std::string scratch = ".";
  std::string spans_path;
};

constexpr std::string_view kUsage =
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
    "[--scratch DIR] [--spans FILE]";

bool parse_uint(std::string_view text, std::uint64_t& out) {
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc() && end == text.data() + text.size();
}

std::optional<Args> parse(int argc, char** argv, std::string& error) {
  Args args;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view key = argv[i];
    if (i + 1 >= argc) {
      error = "missing value for " + std::string(key);
      return std::nullopt;
    }
    const std::string_view value = argv[++i];
    std::uint64_t number = 0;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--scratch") {
      args.scratch = value;
    } else if (key == "--spans") {
      args.spans_path = value;
    } else if (!parse_uint(value, number)) {
      error = "bad value for " + std::string(key) + ": " + std::string(value);
      return std::nullopt;
    } else if (key == "--seed") {
      args.seed = number;
      have_seed = true;
    } else if (key == "--seconds") {
      args.seconds = number;
      have_seconds = number >= 1;
    } else if (key == "--trace" && number <= 1) {
      args.trace = number == 1;
      have_trace = true;
    } else {
      error = "unknown or out-of-range option " + std::string(key);
      return std::nullopt;
    }
  }
  if (args.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    error = "--workload, --seed, --seconds >= 1 and --trace are required";
    return std::nullopt;
  }
  return args;
}

/// Shortest text that reads back as exactly `v`; JSON has no non-finite
/// numbers, so those print as 0.
std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buffer[64];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, v);
  return std::string(buffer, end);
}

/// VmHWM of this process image. getrusage's ru_maxrss would not do: Linux
/// carries it across exec, so it reports the launcher's peak when that is
/// larger (a Python launcher's, for one).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 * 1e-6;  // kB
    }
  }
  return 0.0;
}

void write_spans(const std::string& path, const Args& args, int pass,
                 const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::app);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
        << ",\"pass\":" << pass << ",\"id\":" << i << ",\"name\":\""
        << s.name << "\",\"parent\":" << s.parent
        << ",\"start_us\":" << number(s.start_us)
        << ",\"end_us\":" << number(s.end_us) << "}\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  const std::optional<Args> args = parse(argc, argv, error);
  if (!args) {
    std::cerr << "perfbench: " << error << "\n" << kUsage << "\n";
    return 2;
  }
#ifndef NDEBUG
  std::cerr << "perfbench: refusing to report timings from a build without "
               "NDEBUG (build type " PERFBENCH_BUILD_TYPE ")\n";
  return 2;
#endif
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  Settings settings;
  settings.seed = args->seed;
  settings.workers = std::clamp<std::size_t>(nproc - 1, 1, 3);
  settings.scratch_dir = args->scratch;
  std::unique_ptr<Workload> workload;
  try {
    workload = make_workload(args->workload, settings);
    std::filesystem::create_directories(settings.scratch_dir);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n" << kUsage << "\n";
    return 2;
  }
  std::cout << "perfbench workload=" << args->workload
            << " seed=" << args->seed
            << " build=" PERFBENCH_BUILD_TYPE " ndebug=1"
            << " workers=" << settings.workers << " nproc=" << nproc
            << " pdus=" << settings.pdus << " seconds=" << args->seconds
            << " trace=" << args->trace << "\n";

  std::size_t attempted = 0;
  std::vector<std::string> failures;
  std::optional<std::uint64_t> digest;
  std::vector<double> unattributed_ms;
  const auto run_pass = [&](int index,
                            bool traced) -> std::optional<PassResult> {
    next_cpu();
    SpanLog spans(traced);
    PassResult result;
    try {
      result = workload->pass(spans, traced);
    } catch (const std::exception& e) {
      ++attempted;
      failures.push_back("pass " + std::to_string(index) + " threw: " +
                         e.what());
      return std::nullopt;
    }
    attempted += result.attempted;
    for (const std::string& f : result.failures) {
      failures.push_back("pass " + std::to_string(index) + ": " + f);
    }
    if (!digest) {
      digest = result.digest;
    } else if (result.digest != *digest) {
      failures.push_back("pass " + std::to_string(index) +
                         ": result digest differs from the first pass");
    }
    if (traced) {
      const std::vector<Span> recorded = spans.spans();
      unattributed_ms.push_back(self_time_us(recorded, 0) * 1e-3);
      if (!args->spans_path.empty()) {
        write_spans(args->spans_path, *args, index, recorded);
      }
    }
    return result;
  };

  (void)run_pass(0, false);  // warm-up: checked, not timed
  std::vector<PassResult> plain;
  std::vector<PassResult> traced;
  const double deadline = now_us() + static_cast<double>(args->seconds) * 1e6;
  for (int index = 1;; ++index) {
    const bool with_spans = args->trace && index % 2 == 1;
    if (std::optional<PassResult> r = run_pass(index, with_spans)) {
      (with_spans ? traced : plain).push_back(std::move(*r));
    }
    const bool enough = args->trace
                            ? traced.size() >= 2 && plain.size() >= 2
                            : plain.size() >= 3;
    if (now_us() >= deadline && (enough || index >= 6)) break;
  }

  // End-to-end metrics, from the passes with spans off.
  std::vector<double> setup_s;
  std::vector<double> plain_wall_s;
  std::vector<double> run_ms;
  for (const PassResult& r : plain) {
    setup_s.push_back(r.setup_s);
    plain_wall_s.push_back(r.wall_s);
    run_ms.insert(run_ms.end(), r.run_ms.begin(), r.run_ms.end());
  }
  const std::map<std::string, double> end_to_end = {
      {"setup_s", median(setup_s)},
      {"wall_s", median(plain_wall_s)},
      {"run_ms_p50", median(run_ms)},
      {"run_ms_tail", percentile(run_ms, kTailPercent)},
      {"peak_rss_mb", peak_rss_mb()},
  };

  // Per-layer metrics: medians over the passes that report them.
  std::map<std::string, double> layers;
  for (const MetricInfo& m : kPerLayer) {
    std::vector<double> values;
    for (const std::vector<PassResult>* passes : {&traced, &plain}) {
      for (const PassResult& r : *passes) {
        const auto it = r.layers.find(std::string(m.name));
        if (it != r.layers.end()) values.push_back(it->second);
      }
    }
    layers[std::string(m.name)] = median(values);
  }
  if (args->trace) {
    std::vector<double> traced_wall_s;
    for (const PassResult& r : traced) traced_wall_s.push_back(r.wall_s);
    layers["span.unattributed_ms"] = median(unattributed_ms);
    layers["span.overhead"] =
        median(traced_wall_s) / median(plain_wall_s) - 1.0;
  }

  const std::size_t failed = std::min(failures.size(), attempted);
  const bool correct = failures.empty() && attempted > 0 && !plain.empty() &&
                       (!args->trace || !traced.empty());
  char digest_hex[17];
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                static_cast<unsigned long long>(digest.value_or(0)));
  // The digest and the per-pass counts repeat exactly across runs of one
  // seed; the totals after them depend on how many passes fit the time.
  std::cout << "result_digest " << digest_hex << "\n";
  if (!plain.empty()) {
    std::cout << "per pass: " << plain.front().run_ms.size() << " runs timed, "
              << plain.front().attempted << " checks\n";
  }
  std::cout << "passes " << plain.size() + traced.size() << " ("
            << traced.size() << " with spans), runs " << run_ms.size()
            << ", set-up blocks " << setup_s.size() << "\n"
            << "fail_frac " << number(attempted == 0
                                          ? 1.0
                                          : static_cast<double>(failed) /
                                                static_cast<double>(attempted))
            << " (" << failed << " failed of " << attempted << " attempted)\n";
  for (const MetricInfo& m : kEndToEnd) {
    std::cout << m.name << " " << number(end_to_end.at(std::string(m.name)))
              << " " << m.unit;
    if (m.name == "run_ms_tail") {
      std::cout << " (p" << kTailPercent << " of " << run_ms.size()
                << " runs)";
    }
    std::cout << "\n";
  }
  for (const MetricInfo& m : kPerLayer) {
    const auto it = layers.find(std::string(m.name));
    if (!args->trace && (it->second == 0.0 || m.name.rfind("span.", 0) == 0)) {
      continue;  // untraced passes report only their deterministic layers
    }
    std::cout << m.name << " " << number(it->second) << " " << m.unit
              << "  moves " << m.moves << " on " << m.on << "\n";
  }
  for (std::size_t i = 0; i < failures.size() && i < 20; ++i) {
    std::cout << "FAIL " << failures[i] << "\n";
  }

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  const auto emit = [&](const MetricInfo& m, double value, bool first) {
    std::cout << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
              << number(value) << ", \"unit\": \"" << m.unit << "\"}";
  };
  bool first = true;
  if (args->trace) {
    for (const MetricInfo& m : kPerLayer) {
      emit(m, layers.at(std::string(m.name)), first);
      first = false;
    }
  } else {
    for (const MetricInfo& m : kEndToEnd) {
      emit(m, end_to_end.at(std::string(m.name)), first);
      first = false;
    }
  }
  std::cout << "}}" << std::endl;
  return 0;
}
