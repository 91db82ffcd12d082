#include "exp/dispatch.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "exp/checkpoint.h"
#include "exp/runner.h"
#include "exp/timeline.h"
#include "obs/profile.h"
#include "obs/sink.h"
#include "util/check.h"
#include "util/json.h"
#include "util/rng.h"

namespace dcs::exp {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

std::string shard_dir(const std::string& work_dir, std::size_t shard) {
  return work_dir + "/shard_" + std::to_string(shard);
}

bool is_checkpoint_file(const std::string& name) {
  return name.size() > 11 &&
         name.compare(name.size() - 11, 11, ".ckpt.jsonl") == 0;
}

/// Total bytes of JSONL files in a shard dir — the liveness signal. Every
/// completed row is one flushed checkpoint line, so a live worker grows
/// this monotonically; a missing dir reads as zero.
std::uint64_t checkpoint_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    if (entry.path().extension() != ".jsonl") continue;
    total += static_cast<std::uint64_t>(entry.file_size(ec));
  }
  return total;
}

/// A shard's progress, read from the `*.ckpt.jsonl` files in its dir:
/// `done` counts the rows inside the shard's slice (shard_range) of each
/// sweep, `total` sums those slices over the sweep files present so far.
/// The files are append-only, so both counts only grow, with or without a
/// telemetry stream, and rows seeded from a resume count only inside the
/// slice. A file that fails to load (say, a header mid-write) counts as no
/// progress and never throws out of the poll loop.
struct Progress {
  std::size_t done = 0;
  std::size_t total = 0;
};

Progress shard_progress(const std::string& dir, const Shard& shard) {
  Progress progress;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (!is_checkpoint_file(entry.path().filename().string())) continue;
    try {
      const CheckpointData data = load_checkpoint(entry.path().string());
      if (!data.present) continue;
      const auto [first, last] = shard_range(data.task_count, shard);
      progress.total += last - first;
      progress.done += static_cast<std::size_t>(std::distance(
          data.rows.lower_bound(first), data.rows.lower_bound(last)));
    } catch (const std::exception&) {
      continue;
    }
  }
  return progress;
}

/// Per-attempt telemetry stream path; zero-padded so a lexical sort of the
/// shard dir lists attempts in order (the timeline merge relies on this).
std::string telemetry_path(const std::string& dir, std::size_t attempt) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04zu", attempt);
  return dir + "/telemetry_" + buf + ".jsonl";
}

/// Spawns one worker: command + `shard=i/N checkpoint=<dir>` (and
/// `telemetry=<path>` when streaming), stdout and stderr redirected to an
/// attempt log. Returns -1 when fork fails.
pid_t spawn_worker(const std::vector<std::string>& command, std::size_t shard,
                   std::size_t shards, const std::string& dir,
                   const std::string& log_path,
                   const std::string& telemetry) {
  std::vector<std::string> argv_strings = command;
  argv_strings.push_back("shard=" + std::to_string(shard) + "/" +
                         std::to_string(shards));
  argv_strings.push_back("checkpoint=" + dir);
  if (!telemetry.empty()) argv_strings.push_back("telemetry=" + telemetry);

  const pid_t pid = ::fork();
  if (pid != 0) return pid;  // parent (or fork failure: -1)

  // Child: only async-signal-safe calls between fork and exec.
  const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    ::dup2(fd, STDOUT_FILENO);
    ::dup2(fd, STDERR_FILENO);
    if (fd > STDERR_FILENO) ::close(fd);
  }
  std::vector<char*> argv;
  argv.reserve(argv_strings.size() + 1);
  for (std::string& s : argv_strings) argv.push_back(s.data());
  argv.push_back(nullptr);
  ::execvp(argv[0], argv.data());
  ::_exit(127);  // exec failed: surfaces as a crash with exit code 127
}

struct Worker {
  enum class State { kPending, kRunning, kBackoff, kCompleted, kFailed,
                     kInterrupted };

  std::size_t shard = 0;
  State state = State::kPending;
  pid_t pid = -1;
  std::size_t restarts = 0;
  std::size_t chaos_kills = 0;
  Clock::time_point attempt_start;
  Clock::time_point last_progress;
  Clock::time_point restart_at;
  std::uint64_t last_bytes = 0;
  /// Why the supervisor killed the current attempt ("" = it was not us).
  std::string kill_reason;
  std::vector<AttemptResult> attempts;
  /// Checkpoint progress (shard_progress) + the status tick's rate baseline.
  Progress progress;
  std::size_t status_done = 0;

  [[nodiscard]] bool live() const noexcept {
    return state == State::kPending || state == State::kRunning ||
           state == State::kBackoff;
  }
};

const char* state_name(Worker::State s) {
  switch (s) {
    case Worker::State::kCompleted: return "completed";
    case Worker::State::kFailed: return "failed";
    case Worker::State::kInterrupted: return "interrupted";
    default: return "live";
  }
}

/// Supervisor: the poll loop plus per-shard bookkeeping.
class Dispatcher {
 public:
  explicit Dispatcher(const DispatchOptions& options)
      : options_(options), chaos_(options.chaos_seed) {}

  DispatchReport run() {
    const auto start = Clock::now();
    prepare();
    if (!options_.resume_report_path.empty()) seed_from_report();
    supervise();
    DispatchReport report = finalize();
    report.wall_s = seconds_since(start);
    return report;
  }

 private:
  void log(const std::string& line) {
    if (options_.log != nullptr) *options_.log << "[dispatch] " << line << "\n";
  }

  /// Dispatcher self-telemetry: one wall-clock instant in the supervision
  /// stream (spawn/exit/kill/restart/merge), so the merged timeline shows
  /// what the supervisor did between worker attempts.
  void note(const std::string& name, std::vector<obs::TraceArg> args) {
    if (self_ == nullptr) return;
    obs::TraceEvent e;
    e.domain = obs::Domain::kWall;
    e.phase = 'i';
    e.ts_us = obs::Profiler::instance().now_us();
    e.cat = "dispatch";
    e.name = name;
    e.args = std::move(args);
    self_->write(e);
  }

  void prepare() {
    workers_.resize(options_.shards);
    for (std::size_t i = 0; i < options_.shards; ++i) {
      workers_[i].shard = i;
      workers_[i].restart_at = Clock::now();
      std::error_code ec;
      fs::create_directories(shard_dir(options_.work_dir, i), ec);
      DCS_REQUIRE(!ec, "dispatch: cannot create " +
                           shard_dir(options_.work_dir, i) + ": " +
                           ec.message());
    }
    if (options_.telemetry) {
      obs::TelemetryOptions topt;
      topt.name = "dispatcher";
      self_ = std::make_unique<obs::TelemetrySink>(
          options_.work_dir + "/dispatcher_telemetry.jsonl", topt);
      self_->write_lane_name(obs::Domain::kWall, 0, "supervisor");
      last_status_ = Clock::now();
    }
  }

  void read_progress(Worker& w) {
    w.progress = shard_progress(shard_dir(options_.work_dir, w.shard),
                                Shard{w.shard, options_.shards});
  }

  /// Aggregated per-shard status line: done/total, throughput since the
  /// previous tick, ETA at that rate, restart counts.
  void status_tick() {
    if (options_.log == nullptr || options_.status_interval_s <= 0.0) {
      return;
    }
    const double elapsed = seconds_since(last_status_);
    if (elapsed < options_.status_interval_s) return;
    last_status_ = Clock::now();
    std::ostringstream line;
    line << "status:";
    for (Worker& w : workers_) {
      line << " shard" << w.shard << "=";
      switch (w.state) {
        case Worker::State::kRunning: {
          const Progress& p = w.progress;
          const double rate =
              static_cast<double>(p.done - w.status_done) / elapsed;
          line << p.done << "/" << p.total;
          if (rate > 0.0) {
            char buf[48];
            std::snprintf(buf, sizeof(buf), " (%.1f/s, eta %.0fs)", rate,
                          static_cast<double>(p.total - p.done) / rate);
            line << buf;
          }
          break;
        }
        case Worker::State::kBackoff:
          line << "backoff";
          break;
        default:
          line << state_name(w.state);
          break;
      }
      if (w.restarts > 0) line << " restarts=" << w.restarts;
      w.status_done = w.progress.done;
    }
    log(line.str());
  }

  /// Resume support: seed every cleanly merged sweep checkpoint from a prior
  /// run's dispatch report into the new shard dirs, then skip shards whose
  /// task slice has nothing left to do.
  ///
  /// The merged checkpoint is a superset of any single shard's rows, so
  /// copying it into every shard dir is always safe: workers resume from it
  /// (RunnerOptions checkpoint load) and only compute rows absent from it.
  /// Missing task indices in the report are global, so they remain valid even
  /// when this run uses a different shard count than the degraded one.
  void seed_from_report() {
    const json::Value report = json::parse_file(options_.resume_report_path);
    DCS_REQUIRE(report.find("dispatch_report") != nullptr,
                "dispatch: " + options_.resume_report_path +
                    " is not a dispatch report");
    const json::Value* merged = report.find("merged");
    DCS_REQUIRE(merged != nullptr && merged->is_array(),
                "dispatch: report has no merged[] array");

    // Per shard, whether any seeded sweep still has pending tasks in its
    // slice. A sweep that could not be seeded cleanly (merge error, missing
    // checkpoint file) forces every shard to run: we cannot prove any slice
    // is done.
    std::vector<bool> has_pending(options_.shards, false);
    bool all_sweeps_seeded = !merged->as_array().empty();
    for (std::size_t m = 0; m < merged->size(); ++m) {
      const json::Value& sweep = (*merged)[m];
      const std::string& name = sweep.at("sweep").as_string();
      const std::string& path = sweep.at("path").as_string();
      const auto task_count =
          json::read_integer<std::size_t>(sweep.at("task_count"));
      std::error_code ec;
      if (sweep.find("error") != nullptr || path.empty() ||
          !fs::is_regular_file(path, ec) || task_count == 0) {
        log("resume: sweep " + name +
            " has no clean merged checkpoint; all shards must run");
        all_sweeps_seeded = false;
        std::fill(has_pending.begin(), has_pending.end(), true);
        continue;
      }
      std::size_t seeded = 0;
      for (std::size_t i = 0; i < options_.shards; ++i) {
        fs::copy_file(path,
                      shard_dir(options_.work_dir, i) + "/" + name +
                          ".ckpt.jsonl",
                      fs::copy_options::overwrite_existing, ec);
        DCS_REQUIRE(!ec, "dispatch: cannot seed " + path + " into shard " +
                             std::to_string(i) + ": " + ec.message());
        ++seeded;
      }
      const json::Value& missing = sweep.at("missing");
      std::size_t pending_total = 0;
      for (std::size_t t = 0; t < missing.size(); ++t) {
        const auto task = json::read_integer<std::size_t>(missing[t]);
        for (std::size_t i = 0; i < options_.shards; ++i) {
          const auto [first, last] =
              shard_range(task_count, Shard{i, options_.shards});
          if (task >= first && task < last) has_pending[i] = true;
        }
        ++pending_total;
      }
      log("resume: seeded " + name + " into " + std::to_string(seeded) +
          " shard dir(s), " + std::to_string(pending_total) + "/" +
          std::to_string(task_count) + " task(s) pending");
    }

    if (!all_sweeps_seeded) return;
    for (Worker& w : workers_) {
      if (!has_pending[w.shard]) {
        w.state = Worker::State::kCompleted;
        log("shard " + std::to_string(w.shard) +
            ": nothing pending after resume seed, skipping");
      }
    }
  }

  void start(Worker& w) {
    const std::string dir = shard_dir(options_.work_dir, w.shard);
    const std::size_t attempt = w.attempts.size() + 1;
    const std::string log_path =
        dir + "/attempt_" + std::to_string(attempt) + ".log";
    const std::string telemetry =
        options_.telemetry ? telemetry_path(dir, attempt) : "";
    w.pid = spawn_worker(options_.command, w.shard, options_.shards, dir,
                         log_path, telemetry);
    w.kill_reason.clear();
    w.attempt_start = w.last_progress = Clock::now();
    w.last_bytes = checkpoint_bytes(dir);
    read_progress(w);
    if (w.pid < 0) {
      // fork failed: record a zero-length attempt and route it through the
      // ordinary crash path (budget + backoff).
      AttemptResult attempt;
      attempt.outcome = "spawn-failed";
      attempt.checkpoint_bytes = w.last_bytes;
      w.attempts.push_back(attempt);
      log("shard " + std::to_string(w.shard) + ": fork failed");
      schedule_restart(w, /*chaos=*/false);
      return;
    }
    w.state = Worker::State::kRunning;
    log("shard " + std::to_string(w.shard) + ": attempt " +
        std::to_string(w.attempts.size() + 1) + " started (pid " +
        std::to_string(w.pid) + ")");
    note("spawn", {obs::arg("shard", static_cast<double>(w.shard)),
                   obs::arg("attempt", static_cast<double>(attempt)),
                   obs::arg("pid", static_cast<double>(w.pid))});
  }

  void schedule_restart(Worker& w, bool chaos) {
    if (chaos) {
      // Self-inflicted: the supervisor killed a healthy worker to test
      // itself, so the restart is free and immediate.
      w.restart_at = Clock::now();
      w.state = Worker::State::kBackoff;
      return;
    }
    // Check the budget before counting: a shard that fails with no budget
    // left reports restarts == attempts - 1, never a restart that did not
    // actually happen.
    if (w.restarts >= options_.max_restarts) {
      w.state = Worker::State::kFailed;
      log("shard " + std::to_string(w.shard) + ": retry budget exhausted (" +
          std::to_string(options_.max_restarts) + " restart(s))");
      return;
    }
    ++w.restarts;
    const double delay = std::min(
        options_.backoff_base_s *
            static_cast<double>(std::uint64_t{1} << (w.restarts - 1)),
        options_.backoff_max_s);
    w.restart_at =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(delay));
    w.state = Worker::State::kBackoff;
    log("shard " + std::to_string(w.shard) + ": restart " +
        std::to_string(w.restarts) + "/" +
        std::to_string(options_.max_restarts) + " in " +
        std::to_string(delay) + " s");
    note("restart", {obs::arg("shard", static_cast<double>(w.shard)),
                     obs::arg("restarts", static_cast<double>(w.restarts)),
                     obs::arg("backoff_s", delay)});
  }

  /// Reaps an exited worker and routes it to completed/backoff/failed.
  void handle_exit(Worker& w, int status) {
    AttemptResult attempt;
    attempt.wall_s = seconds_since(w.attempt_start);
    attempt.checkpoint_bytes =
        checkpoint_bytes(shard_dir(options_.work_dir, w.shard));
    if (WIFEXITED(status)) attempt.exit_code = WEXITSTATUS(status);
    if (WIFSIGNALED(status)) attempt.term_signal = WTERMSIG(status);

    const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    const bool chaos = w.kill_reason == "chaos";
    if (!w.kill_reason.empty()) {
      attempt.outcome = w.kill_reason;
    } else if (clean) {
      attempt.outcome = "completed";
    } else {
      attempt.outcome = "crashed";
    }
    w.attempts.push_back(attempt);
    w.pid = -1;
    note("exit", {obs::arg("shard", static_cast<double>(w.shard)),
                  obs::arg("outcome", attempt.outcome),
                  obs::arg("exit_code", static_cast<double>(attempt.exit_code)),
                  obs::arg("signal",
                           static_cast<double>(attempt.term_signal))});

    if (draining_) {
      // Whatever the exit status, a drain ends the shard here; the
      // checkpoint rows it flushed are the resumable state we report.
      w.state = clean ? Worker::State::kCompleted : Worker::State::kInterrupted;
      return;
    }
    if (clean) {
      w.state = Worker::State::kCompleted;
      log("shard " + std::to_string(w.shard) + ": completed after " +
          std::to_string(w.attempts.size()) + " attempt(s)");
      return;
    }
    log("shard " + std::to_string(w.shard) + ": attempt " +
        std::to_string(w.attempts.size()) + " " + attempt.outcome +
        (attempt.term_signal != 0
             ? " (signal " + std::to_string(attempt.term_signal) + ")"
             : " (exit " + std::to_string(attempt.exit_code) + ")"));
    schedule_restart(w, chaos);
  }

  void kill_worker(Worker& w, const std::string& reason, int sig) {
    w.kill_reason = reason;
    ::kill(w.pid, sig);
    note("kill", {obs::arg("shard", static_cast<double>(w.shard)),
                  obs::arg("reason", reason),
                  obs::arg("signal", static_cast<double>(sig))});
    log("shard " + std::to_string(w.shard) + ": " + reason + ", sent " +
        (sig == SIGKILL ? "SIGKILL" : "SIGTERM") + " to pid " +
        std::to_string(w.pid));
  }

  void begin_drain() {
    draining_ = true;
    drain_start_ = Clock::now();
    log("drain requested: forwarding SIGTERM, grace " +
        std::to_string(options_.grace_period_s) + " s");
    for (Worker& w : workers_) {
      if (w.state == Worker::State::kRunning) {
        kill_worker(w, "drained", SIGTERM);
      } else if (w.state == Worker::State::kPending ||
                 w.state == Worker::State::kBackoff) {
        w.state = Worker::State::kInterrupted;
      }
    }
  }

  void poll_running(Worker& w) {
    int status = 0;
    const pid_t reaped = ::waitpid(w.pid, &status, WNOHANG);
    if (reaped == w.pid) {
      handle_exit(w, status);
      return;
    }
    if (draining_) {
      if (seconds_since(drain_start_) > options_.grace_period_s) {
        ::kill(w.pid, SIGKILL);  // grace expired; checkpoint is still valid
      }
      return;
    }
    // Liveness: checkpoint growth resets the stall clock, and is the only
    // time the progress counts can move.
    const std::uint64_t bytes =
        checkpoint_bytes(shard_dir(options_.work_dir, w.shard));
    if (bytes != w.last_bytes) {
      w.last_bytes = bytes;
      w.last_progress = Clock::now();
      read_progress(w);
    } else if (options_.stall_timeout_s > 0.0 &&
               seconds_since(w.last_progress) > options_.stall_timeout_s) {
      kill_worker(w, "stalled", SIGKILL);
      return;
    }
    if (options_.attempt_deadline_s > 0.0 &&
        seconds_since(w.attempt_start) > options_.attempt_deadline_s) {
      kill_worker(w, "deadline", SIGKILL);
      return;
    }
    // Chaos: self-inflicted kills, seeded, optionally capped.
    if (options_.chaos_kill_prob > 0.0 &&
        (options_.chaos_kill_limit == 0 ||
         total_chaos_kills_ < options_.chaos_kill_limit) &&
        chaos_.uniform() < options_.chaos_kill_prob) {
      ++total_chaos_kills_;
      ++w.chaos_kills;
      kill_worker(w, "chaos", SIGKILL);
    }
  }

  void supervise() {
    while (true) {
      if (!draining_ && options_.stop != nullptr &&
          options_.stop->load(std::memory_order_relaxed)) {
        begin_drain();
      }
      bool any_live = false;
      for (Worker& w : workers_) {
        switch (w.state) {
          case Worker::State::kPending:
          case Worker::State::kBackoff:
            if (Clock::now() >= w.restart_at) start(w);
            break;
          case Worker::State::kRunning:
            poll_running(w);
            break;
          default:
            break;
        }
        any_live = any_live || w.live();
      }
      if (!any_live) return;
      status_tick();
      std::this_thread::sleep_for(
          std::chrono::duration<double>(options_.poll_interval_s));
    }
  }

  /// Merges every checkpoint file name seen across the shard dirs and
  /// assembles the report. Merge errors degrade, they never throw.
  DispatchReport finalize() {
    DispatchReport report;
    report.shards = options_.shards;

    std::set<std::string> names;
    std::vector<std::size_t> shard_rows(options_.shards, 0);
    for (std::size_t i = 0; i < options_.shards; ++i) {
      std::error_code ec;
      for (const fs::directory_entry& entry :
           fs::directory_iterator(shard_dir(options_.work_dir, i), ec)) {
        const std::string name = entry.path().filename().string();
        if (is_checkpoint_file(name)) names.insert(name);
      }
    }

    const std::string merged_dir = options_.work_dir + "/merged";
    std::error_code ec;
    fs::create_directories(merged_dir, ec);
    for (const std::string& name : names) {
      MergedSweep sweep;
      sweep.sweep = name.substr(0, name.size() - 11);
      try {
        std::vector<CheckpointData> shards;
        for (std::size_t i = 0; i < options_.shards; ++i) {
          CheckpointData data =
              load_checkpoint(shard_dir(options_.work_dir, i) + "/" + name);
          // A shard killed before its header flushed contributes nothing
          // (present == false for missing and for empty files).
          if (!data.present) continue;
          shard_rows[i] += data.rows.size();
          shards.push_back(std::move(data));
        }
        if (shards.empty()) {
          sweep.error = "no shard produced a readable checkpoint";
        } else {
          const CheckpointData merged = merge_checkpoints(shards);
          sweep.rows = merged.rows.size();
          sweep.task_count = merged.task_count;
          for (std::size_t t = 0; t < merged.task_count; ++t) {
            if (merged.rows.count(t) == 0) sweep.missing.push_back(t);
          }
          const std::string out_path = merged_dir + "/" + name;
          if (write_checkpoint_atomic(out_path, merged)) {
            sweep.path = out_path;
          } else {
            sweep.error = "cannot write " + out_path;
          }
        }
      } catch (const std::exception& e) {
        sweep.error = e.what();
      }
      if (!sweep.error.empty()) {
        log("merge " + name + ": " + sweep.error);
      } else {
        log("merged " + name + ": " + std::to_string(sweep.rows) + "/" +
            std::to_string(sweep.task_count) + " rows -> " + sweep.path);
      }
      note("merge", {obs::arg("sweep", sweep.sweep),
                     obs::arg("rows", static_cast<double>(sweep.rows)),
                     obs::arg("ok", sweep.error.empty())});
      report.merged.push_back(std::move(sweep));
    }

    bool all_completed = true;
    for (Worker& w : workers_) {
      read_progress(w);  // rows flushed after the final supervision poll
      ShardStatus status;
      status.shard = w.shard;
      status.state = state_name(w.state);
      status.restarts = w.restarts;
      status.chaos_kills = w.chaos_kills;
      status.rows = shard_rows[w.shard];
      status.tasks_done = w.progress.done;
      status.tasks_total = w.progress.total;
      status.attempts = w.attempts;
      all_completed = all_completed && w.state == Worker::State::kCompleted;
      report.shard_status.push_back(std::move(status));
      report.chaos_kills += w.chaos_kills;
    }
    const bool all_merged =
        !report.merged.empty() &&
        std::all_of(report.merged.begin(), report.merged.end(),
                    [](const MergedSweep& m) { return m.complete(); });
    report.status = draining_              ? "interrupted"
                    : all_completed && all_merged ? "complete"
                                                  : "degraded";

    // Timeline merge last: the dispatcher's own stream must be sealed
    // before it becomes an input.
    if (options_.telemetry) {
      report.telemetry = true;
      if (self_ != nullptr) self_->finalize();
      TimelineOptions topt;
      topt.work_dir = options_.work_dir;
      topt.shards = options_.shards;
      topt.log = options_.log;
      report.timeline = merge_timeline(topt);
      if (!report.timeline.ok()) log(report.timeline.error);
    }
    return report;
  }

  const DispatchOptions& options_;
  Rng chaos_;
  std::vector<Worker> workers_;
  bool draining_ = false;
  Clock::time_point drain_start_;
  std::size_t total_chaos_kills_ = 0;
  std::unique_ptr<obs::TelemetrySink> self_;
  Clock::time_point last_status_;
};

void append_attempt_json(std::ostringstream& out, const AttemptResult& a) {
  out << "{\"outcome\": " << json::quote(a.outcome)
      << ", \"exit_code\": " << a.exit_code
      << ", \"term_signal\": " << a.term_signal << ", \"wall_s\": "
      << json::number_to_string(a.wall_s)
      << ", \"checkpoint_bytes\": " << a.checkpoint_bytes << "}";
}

}  // namespace

DispatchReport dispatch_sweep(const DispatchOptions& options) {
  DCS_REQUIRE(!options.command.empty(), "dispatch: empty worker command");
  for (std::size_t i = 1; i < options.command.size(); ++i) {
    DCS_REQUIRE(options.command[i].rfind("trace=", 0) != 0,
                "dispatch: the worker command sets " + options.command[i] +
                    ", so every shard would write one trace file; "
                    "--telemetry streams each shard's trace to its own file");
  }
  DCS_REQUIRE(options.shards >= 1, "dispatch: need at least one shard");
  DCS_REQUIRE(!options.work_dir.empty(), "dispatch: work_dir is required");
  DCS_REQUIRE(options.poll_interval_s > 0.0,
              "dispatch: poll interval must be positive");
  Dispatcher dispatcher(options);
  return dispatcher.run();
}

std::string dispatch_report_json(const DispatchReport& report) {
  std::ostringstream out;
  out << "{\"dispatch_report\": 1, \"status\": " << json::quote(report.status)
      << ", \"shards\": " << report.shards
      << ", \"chaos_kills\": " << report.chaos_kills
      << ", \"wall_s\": " << json::number_to_string(report.wall_s)
      << ", \"telemetry\": " << (report.telemetry ? "true" : "false")
      << ",\n \"shard_status\": [";
  for (std::size_t i = 0; i < report.shard_status.size(); ++i) {
    const ShardStatus& s = report.shard_status[i];
    out << (i == 0 ? "" : ",") << "\n  {\"shard\": " << s.shard
        << ", \"state\": " << json::quote(s.state)
        << ", \"restarts\": " << s.restarts
        << ", \"chaos_kills\": " << s.chaos_kills << ", \"rows\": " << s.rows
        << ", \"tasks_done\": " << s.tasks_done
        << ", \"tasks_total\": " << s.tasks_total << ", \"attempts\": [";
    for (std::size_t a = 0; a < s.attempts.size(); ++a) {
      out << (a == 0 ? "" : ", ");
      append_attempt_json(out, s.attempts[a]);
    }
    out << "]}";
  }
  out << "],\n \"merged\": [";
  for (std::size_t i = 0; i < report.merged.size(); ++i) {
    const MergedSweep& m = report.merged[i];
    out << (i == 0 ? "" : ",") << "\n  {\"sweep\": " << json::quote(m.sweep)
        << ", \"path\": " << json::quote(m.path) << ", \"rows\": " << m.rows
        << ", \"task_count\": " << m.task_count << ", \"complete\": "
        << (m.complete() ? "true" : "false") << ", \"missing\": [";
    for (std::size_t t = 0; t < m.missing.size(); ++t) {
      out << (t == 0 ? "" : ", ") << m.missing[t];
    }
    out << "]";
    if (!m.error.empty()) out << ", \"error\": " << json::quote(m.error);
    out << "}";
  }
  out << "]";
  if (report.telemetry) {
    const TimelineSummary& t = report.timeline;
    out << ",\n \"timeline\": {\"sources\": " << t.sources
        << ", \"aligned_sources\": " << t.aligned_sources
        << ", \"events\": " << t.events << ", \"stacks\": " << t.stacks
        << ", \"base_epoch_unix_us\": " << t.base_epoch_unix_us
        << ", \"jsonl\": " << json::quote(t.jsonl_path)
        << ", \"perfetto\": " << json::quote(t.perfetto_path)
        << ", \"stacks_path\": " << json::quote(t.stacks_path);
    if (!t.error.empty()) out << ", \"error\": " << json::quote(t.error);
    out << "}";
  }
  out << "}\n";
  return out.str();
}

bool write_dispatch_report(const std::string& path,
                           const DispatchReport& report) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << dispatch_report_json(report);
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

}  // namespace dcs::exp
