// Deterministic fake shard worker for the dispatcher tests: a miniature
// sweep bench whose failure modes are scriptable from the command line. It
// speaks the exact worker contract the dispatcher relies on — key=value
// args, `shard=i/N`, `checkpoint=<dir>` (file at <dir>/<sweep>.ckpt.jsonl),
// exit 0 only when its slice is complete — and runs its grid through the
// real exp::run_sweep, so a restarted attempt resumes from the checkpoint
// exactly like a production bench.
//
// Args (all optional except checkpoint=):
//   checkpoint=<dir>      checkpoint directory (required)
//   shard=i/N             task slice (default 0/1)
//   sweep=<name>          sweep name (default "fake")
//   sweeps=<k>            run k sweeps of the same grid one after another,
//                         the first named <name>, the others <name>_2 ..
//                         <name>_k (default 1), like the multi-sweep benches
//   tasks=<n>             grid size (default 24)
//   sleep_ms=<ms>         per-task delay (default 0)
//   attempt_dir=<dir>     where the per-shard attempt counter lives; the
//                         *_attempts knobs below count against it
//   crash_attempts=<n>    attempts 1..n crash (_Exit(42)) after writing
//                         crash_rows new rows
//   crash_rows=<k>        rows written before a scripted crash (default 2)
//   stall_attempts=<n>    attempts 1..n hang forever after one row
//   fail_attempts=<n>     attempts 1..n exit 1 before doing any work
//   fail_shard=<i>        restrict the *_attempts failures to shard i
//                         (default -1 = all shards)
//   telemetry=<path>      write an obs::TelemetrySink stream (header, one
//                         sim instant per executed task, a folded stack)
//                         — the dispatcher's --telemetry contract
//
// Row values depend only on the task seed, so any mix of crashes, restarts
// and shards merges byte-identical to a clean single-process run.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "exp/runner.h"
#include "exp/sweep.h"
#include "obs/sink.h"
#include "util/config.h"

namespace {

dcs::exp::Shard parse_shard(const std::string& text) {
  dcs::exp::Shard shard;
  unsigned long index = 0;
  unsigned long count = 0;
  char trailing = '\0';
  if (std::sscanf(text.c_str(), "%lu/%lu%c", &index, &count, &trailing) != 2 ||
      count == 0 || index >= count) {
    std::cerr << "fake_worker: bad shard '" << text << "'\n";
    std::exit(2);
  }
  shard.index = static_cast<std::size_t>(index);
  shard.count = static_cast<std::size_t>(count);
  return shard;
}

/// Reads, increments and rewrites this shard's attempt counter. The
/// dispatcher never runs the same shard twice concurrently, so a plain
/// read-modify-write file is race-free.
std::size_t bump_attempt(const std::string& attempt_dir, std::size_t shard) {
  const std::string path =
      attempt_dir + "/shard_" + std::to_string(shard) + ".attempts";
  std::size_t attempts = 0;
  {
    std::ifstream in(path);
    in >> attempts;
  }
  ++attempts;
  std::ofstream out(path, std::ios::trunc);
  out << attempts << "\n";
  return attempts;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dcs;
  const Config args = Config::from_args(
      std::span<const char* const>(argv + 1, static_cast<std::size_t>(argc - 1)));

  const std::string checkpoint_dir = args.get_string("checkpoint", "");
  if (checkpoint_dir.empty()) {
    std::cerr << "fake_worker: checkpoint=<dir> is required\n";
    return 2;
  }
  const std::string sweep_name = args.get_string("sweep", "fake");
  const std::size_t tasks = args.get_count("tasks", 24);
  const std::size_t sleep_ms = args.get_count("sleep_ms", 0);
  const exp::Shard shard = parse_shard(args.get_string("shard", "0/1"));

  const std::string attempt_dir = args.get_string("attempt_dir", "");
  const std::size_t attempt =
      attempt_dir.empty() ? 1 : bump_attempt(attempt_dir, shard.index);
  const bool scripted = args.get_string("fail_shard", "").empty() ||
                        args.get_count("fail_shard", 0) == shard.index;

  if (scripted && attempt <= args.get_count("fail_attempts", 0)) {
    std::cerr << "fake_worker: scripted failure on attempt " << attempt
              << "\n";
    return 1;
  }
  const bool crash_scripted =
      scripted && attempt <= args.get_count("crash_attempts", 0);
  const bool stall_scripted =
      scripted && attempt <= args.get_count("stall_attempts", 0);
  const int crash_rows = static_cast<int>(args.get_count("crash_rows", 2));

  // Telemetry contract under test: the header is on disk from the start,
  // so even a crashed attempt's stream aligns; the task events and the
  // stack line reach the file only on clean completion (finalize).
  std::unique_ptr<obs::TelemetrySink> telemetry;
  const std::string telemetry_file = args.get_string("telemetry", "");
  if (!telemetry_file.empty()) {
    telemetry = std::make_unique<obs::TelemetrySink>(
        telemetry_file,
        obs::TelemetryOptions{.name = "fake_worker",
                              .shard = args.get_string("shard", "0/1")});
    telemetry->write_lane_name(obs::Domain::kSim, 0, "fake");
  }

  std::atomic<int> rows_this_attempt{0};
  std::size_t executed = 0;
  const std::size_t sweeps = args.get_count("sweeps", 1);
  for (std::size_t k = 1; k <= sweeps; ++k) {
    const std::string name =
        k == 1 ? sweep_name : sweep_name + "_" + std::to_string(k);
    exp::SweepSpec spec(name, /*base_seed=*/0xFA4EULL);
    std::vector<double> values(tasks);
    for (std::size_t i = 0; i < tasks; ++i) values[i] = static_cast<double>(i);
    spec.add_axis("x", values, 0);

    exp::RunnerOptions options;
    options.threads = 1;  // deterministic row order within the slice
    options.checkpoint_path = checkpoint_dir + "/" + name + ".ckpt.jsonl";
    options.shard = shard;
    const exp::SweepRun run = exp::run_sweep(
        spec, {"value"},
        [&](const exp::SweepSpec::Task& task) {
          if (crash_scripted && rows_this_attempt.load() >= crash_rows) {
            std::_Exit(42);  // hard crash: no flush, no destructors
          }
          if (stall_scripted && rows_this_attempt.load() >= 1) {
            for (;;) std::this_thread::sleep_for(std::chrono::seconds(3600));
          }
          if (sleep_ms > 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
          }
          rows_this_attempt.fetch_add(1);
          if (telemetry != nullptr) {
            obs::TraceEvent event;
            event.domain = obs::Domain::kSim;
            event.phase = 'i';
            event.ts_us = static_cast<double>(task.index) * 1e6;
            event.cat = "fake";
            event.name = "task";
            event.args = {obs::arg("index", static_cast<double>(task.index))};
            telemetry->write(event);
          }
          // Keyed on the stable task seed: every attempt computes identical
          // bytes, the property the dispatcher's merge verifies.
          return std::vector<double>{
              static_cast<double>(task.seed % 10007) / 3.0};
        },
        options);
    executed += run.executed_tasks;
  }

  if (telemetry != nullptr) {
    telemetry->write_stacks({{"fake;task", executed}});
    telemetry->finalize();
  }

  std::cout << "fake_worker: shard " << shard.index << "/" << shard.count
            << " attempt " << attempt << " executed " << executed
            << " task(s)\n";
  return 0;
}
