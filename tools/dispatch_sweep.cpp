// Fault-tolerant distributed sweep dispatcher. Usage:
//
//   dispatch_sweep --shards=N --dir=WORKDIR [flags] -- <bench command...>
//
// Spawns N shard workers from the command template (appending `shard=i/N
// checkpoint=WORKDIR/shard_i` to each), supervises them — restarting
// crashed, stalled or deadline-blown workers with exponential backoff under
// a per-shard retry budget — and merges the shard checkpoints into
// WORKDIR/merged/ when the fleet finishes. A machine-readable dispatch
// report (per-shard attempts, restarts, rows, missing task indices) lands
// at WORKDIR/dispatch_report.json (see EXPERIMENTS.md for the schema).
//
// Flags:
//   --retries=K            restarts per shard before giving up (default 3)
//   --stall-timeout=S      kill a worker whose checkpoint stopped growing
//                          for S seconds (default 120; 0 disables)
//   --deadline=S           per-attempt wall-clock cap (default 0 = none)
//   --backoff=S            backoff base (default 0.5; doubles per restart)
//   --backoff-max=S        backoff cap (default 30)
//   --poll=S               supervisor poll interval (default 0.05)
//   --grace=S              drain grace period after SIGTERM (default 10)
//   --chaos-kill-prob=P    per-poll kill probability per live worker
//   --chaos-seed=N         chaos RNG seed
//   --chaos-kill-limit=N   disarm chaos after N kills (0 = unlimited)
//   --telemetry            stream telemetry: workers write per-attempt
//                          JSONL streams, and everything (dispatcher + all
//                          worker attempts) merges into
//                          WORKDIR/merged/timeline.{jsonl,perfetto} +
//                          dispatch_stacks.folded (every worker's scope
//                          paths, valued at self microseconds); this is
//                          how a dispatched run traces, since a command
//                          that sets trace= (one file for every shard) is
//                          a usage error
//   --status-interval=S    cadence of the per-shard done/total, rate and
//                          ETA lines, read from the shard checkpoints with
//                          or without --telemetry (default 5; 0 disables)
//   --report=PATH          report path (default WORKDIR/dispatch_report.json)
//   --resume-report=PATH   resume a degraded run: seed the merged sweep
//                          checkpoints named in PATH (a prior run's
//                          dispatch_report.json) into the new shard dirs, so
//                          only the report's missing task indices are
//                          recomputed; shards with nothing pending never spawn
//   --quiet                suppress supervision diagnostics
//
// SIGINT/SIGTERM drain cleanly: SIGTERM is forwarded to the workers, which
// finish their in-flight tasks and flush their checkpoints (bench_util's
// worker-mode contract), then the merged state and report are written so
// the run can resume later. A second signal exits immediately.
//
// Exit codes: 0 = complete (every task of every sweep merged), 1 = degraded
// (retry budget exhausted somewhere; partial merge + report written), 2 =
// usage or unusable options, 3 = interrupted (drained on signal).
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "exp/dispatch.h"
#include "util/json.h"

namespace {

std::atomic<bool> g_stop{false};

void drain_handler(int sig) {
  // Second signal: the user really means it.
  if (g_stop.exchange(true)) ::_exit(128 + sig);
}

void install_handlers() {
  struct sigaction action = {};
  action.sa_handler = drain_handler;
  ::sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
}

void usage(std::ostream& out) {
  out << "usage: dispatch_sweep --shards=N --dir=WORKDIR\n"
         "                      [--retries=K] [--stall-timeout=S] "
         "[--deadline=S]\n"
         "                      [--backoff=S] [--backoff-max=S] [--poll=S] "
         "[--grace=S]\n"
         "                      [--chaos-kill-prob=P] [--chaos-seed=N] "
         "[--chaos-kill-limit=N]\n"
         "                      [--telemetry] [--status-interval=S]\n"
         "                      [--report=PATH] [--resume-report=PATH] "
         "[--quiet] -- <command...>\n";
}

bool parse_value_flag(const char* arg, const char* prefix, std::string* out) {
  const std::size_t n = std::strlen(prefix);
  if (std::strncmp(arg, prefix, n) != 0) return false;
  *out = arg + n;
  return true;
}

bool parse_double_flag(const char* arg, const char* prefix, double* out) {
  std::string text;
  if (!parse_value_flag(arg, prefix, &text)) return false;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    throw std::invalid_argument(std::string("bad value in ") + arg);
  }
  *out = v;
  return true;
}

/// A count flag's value: a whole number in std::size_t's range, checked
/// before the cast (json::is_integer_in_range).
bool parse_size_flag(const char* arg, const char* prefix, std::size_t* out) {
  double v = 0.0;
  if (!parse_double_flag(arg, prefix, &v)) return false;
  if (!dcs::json::is_integer_in_range<std::size_t>(v)) {
    throw std::invalid_argument(std::string("bad value in ") + arg +
                                ": not a whole number in range");
  }
  *out = static_cast<std::size_t>(v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  dcs::exp::DispatchOptions options;
  std::string report_path;
  bool quiet = false;
  std::size_t chaos_seed = 0;
  bool have_chaos_seed = false;
  try {
    int i = 1;
    for (; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strcmp(arg, "--") == 0) {
        ++i;
        break;
      }
      if (std::strcmp(arg, "--quiet") == 0) {
        quiet = true;
      } else if (std::strcmp(arg, "--telemetry") == 0) {
        options.telemetry = true;
      } else if (parse_size_flag(arg, "--shards=", &options.shards) ||
                 parse_size_flag(arg, "--retries=", &options.max_restarts) ||
                 parse_size_flag(arg, "--chaos-kill-limit=",
                                 &options.chaos_kill_limit) ||
                 parse_double_flag(arg, "--stall-timeout=",
                                   &options.stall_timeout_s) ||
                 parse_double_flag(arg, "--deadline=",
                                   &options.attempt_deadline_s) ||
                 parse_double_flag(arg, "--backoff=",
                                   &options.backoff_base_s) ||
                 parse_double_flag(arg, "--backoff-max=",
                                   &options.backoff_max_s) ||
                 parse_double_flag(arg, "--poll=", &options.poll_interval_s) ||
                 parse_double_flag(arg, "--grace=", &options.grace_period_s) ||
                 parse_double_flag(arg, "--status-interval=",
                                   &options.status_interval_s) ||
                 parse_double_flag(arg, "--chaos-kill-prob=",
                                   &options.chaos_kill_prob) ||
                 parse_value_flag(arg, "--dir=", &options.work_dir) ||
                 parse_value_flag(arg, "--report=", &report_path) ||
                 parse_value_flag(arg, "--resume-report=",
                                  &options.resume_report_path)) {
        // handled
      } else if (parse_size_flag(arg, "--chaos-seed=", &chaos_seed)) {
        have_chaos_seed = true;
      } else {
        std::cerr << "dispatch_sweep: unknown flag '" << arg << "'\n";
        usage(std::cerr);
        return 2;
      }
    }
    for (; i < argc; ++i) options.command.emplace_back(argv[i]);
    if (options.command.empty() || options.work_dir.empty() ||
        options.shards == 0) {
      usage(std::cerr);
      return 2;
    }
    if (have_chaos_seed) options.chaos_seed = chaos_seed;
    if (report_path.empty()) {
      report_path = options.work_dir + "/dispatch_report.json";
    }
    options.stop = &g_stop;
    options.log = quiet ? nullptr : &std::cerr;
    install_handlers();

    const dcs::exp::DispatchReport report = dcs::exp::dispatch_sweep(options);

    if (!dcs::exp::write_dispatch_report(report_path, report)) {
      std::cerr << "dispatch_sweep: cannot write report " << report_path
                << "\n";
      return 2;
    }
    std::cout << "dispatch_sweep: " << report.status << " — "
              << report.shards << " shard(s), " << report.chaos_kills
              << " chaos kill(s)\n";
    for (const dcs::exp::ShardStatus& s : report.shard_status) {
      std::cout << "  shard " << s.shard << ": " << s.state << ", "
                << s.attempts.size() << " attempt(s), " << s.restarts
                << " restart(s), " << s.rows << " row(s)\n";
    }
    for (const dcs::exp::MergedSweep& m : report.merged) {
      std::cout << "  sweep '" << m.sweep << "': " << m.rows << "/"
                << m.task_count << " task(s)"
                << (m.error.empty() ? "" : " — " + m.error);
      if (!m.missing.empty()) {
        std::cout << ", missing " << m.missing.size() << " task(s)";
      }
      std::cout << "\n";
    }
    if (report.telemetry) {
      if (report.timeline.ok()) {
        std::cout << "  timeline: " << report.timeline.events
                  << " event(s) from " << report.timeline.sources
                  << " stream(s) -> " << report.timeline.jsonl_path << "\n";
      } else {
        std::cout << "  timeline: " << report.timeline.error << "\n";
      }
    }
    std::cout << "dispatch_sweep: report -> " << report_path << "\n";
    return report.exit_code();
  } catch (const std::exception& e) {
    std::cerr << "dispatch_sweep: " << e.what() << "\n";
    return 2;
  }
}
