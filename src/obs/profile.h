// Wall-clock profiling scopes with per-thread buffers.
//
// DCS_OBS_SCOPE("name") times the enclosing block and records a span into a
// buffer owned by the calling thread — no cross-thread contention on the
// hot path beyond one uncontended mutex per record. Threads identify
// themselves with a *lane* (main thread 0; exp::ThreadPool workers register
// lane 1..N), so a sweep's Perfetto trace shows one row per worker and pool
// utilization is visible at a glance.
//
// collect() merges the buffers deterministically — sorted by (lane, start,
// longest-span-first) — so the *structure* of the output depends only on
// the recorded data, never on buffer registration order. The recorded
// durations are wall clock and belong in perf records only; simulation
// results must never depend on them (DESIGN.md "Observability").
//
// When the sampling profiler (obs/sampler.h) is active, each scope also
// pushes its name onto a lock-free per-thread ScopeStack that the sampler
// thread snapshots periodically — that is how long sweeps get
// flame-graph-compatible folded stacks without per-event cost.
//
// The profiler is disabled by default; a disabled scope is two relaxed
// atomic loads.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace dcs::obs {

struct ProfileEvent {
  /// Scope name; must point at storage outliving the profiler use (string
  /// literals — the DCS_OBS_SCOPE contract).
  const char* name = nullptr;
  std::uint32_t lane = 0;
  double start_us = 0.0;
  double dur_us = 0.0;
};

/// Lock-free stack of the calling thread's active scope names, readable
/// from the sampler thread. Only the owner thread mutates it; the sampler
/// reads depth (acquire) then frames (relaxed), so a snapshot taken mid
/// push/pop may be one frame stale — sampling tolerance, never UB: every
/// stored pointer is a string literal.
class ScopeStack {
 public:
  static constexpr std::size_t kMaxDepth = 32;

  void push(const char* name, std::uint32_t lane) noexcept {
    const std::size_t d = depth_.load(std::memory_order_relaxed);
    if (d < kMaxDepth) frames_[d].store(name, std::memory_order_relaxed);
    lane_.store(lane, std::memory_order_relaxed);
    depth_.store(d + 1, std::memory_order_release);
  }
  void pop() noexcept {
    const std::size_t d = depth_.load(std::memory_order_relaxed);
    if (d > 0) depth_.store(d - 1, std::memory_order_release);
  }

  /// Sampler-side read: copies up to kMaxDepth frame names bottom-up into
  /// `out`, stores the owner's lane, returns the depth (0 = idle thread).
  std::size_t read(const char* out[], std::uint32_t* lane) const noexcept {
    std::size_t d = depth_.load(std::memory_order_acquire);
    if (d > kMaxDepth) d = kMaxDepth;
    for (std::size_t i = 0; i < d; ++i) {
      out[i] = frames_[i].load(std::memory_order_relaxed);
    }
    *lane = lane_.load(std::memory_order_relaxed);
    return d;
  }

 private:
  std::atomic<const char*> frames_[kMaxDepth] = {};
  std::atomic<std::size_t> depth_{0};
  std::atomic<std::uint32_t> lane_{0};
};

class Profiler {
 public:
  static Profiler& instance();

  void set_enabled(bool enabled) noexcept;
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Scope-stack maintenance switch, owned by the Sampler (obs/sampler.h).
  void set_sampling(bool sampling) noexcept;
  [[nodiscard]] bool sampling() const noexcept {
    return sampling_.load(std::memory_order_relaxed);
  }

  /// Sets the calling thread's lane (sticky thread-local; main = 0).
  static void set_thread_lane(std::uint32_t lane) noexcept;
  [[nodiscard]] static std::uint32_t thread_lane() noexcept;

  /// Wall microseconds since the process-wide profiler epoch.
  [[nodiscard]] double now_us() const noexcept;

  /// Unix microseconds (system clock) at the profiler epoch — the anchor
  /// that lets cross-process merges (exp/timeline.h) place each process's
  /// wall spans on one shared timeline: a wall event at ts_us in process P
  /// happened at absolute time P.epoch_unix_us() + ts_us. Captured once at
  /// construction together with the steady-clock epoch.
  [[nodiscard]] std::int64_t epoch_unix_us() const noexcept {
    return epoch_unix_us_;
  }

  /// Records one finished span into the calling thread's buffer.
  void record(const char* name, double start_us, double dur_us);

  /// The calling thread's scope stack (registered with the profiler on
  /// first use; storage lives as long as the process).
  ScopeStack& local_stack();

  /// One sampled call stack: the owning thread's lane plus the active
  /// scope names, outermost first.
  struct StackSample {
    std::uint32_t lane = 0;
    std::vector<const char*> frames;
  };
  /// Snapshots every registered thread's scope stack (sampler thread).
  /// Idle (empty) stacks are skipped.
  [[nodiscard]] std::vector<StackSample> snapshot_stacks() const;

  /// Copies every buffered span, merged in (lane, start_us, dur_us desc)
  /// order. Does not clear; pair with reset() between runs.
  [[nodiscard]] std::vector<ProfileEvent> collect() const;
  /// Drops every buffered span.
  void reset();

 private:
  Profiler();

  struct Buffer {
    std::mutex mu;
    std::vector<ProfileEvent> events;
  };
  Buffer& local_buffer();

  std::atomic<bool> enabled_{false};
  std::atomic<bool> sampling_{false};
  std::chrono::steady_clock::time_point epoch_;
  std::int64_t epoch_unix_us_ = 0;
  mutable std::mutex mu_;  // guards buffers_ and stacks_ (registration,
                           // collect, snapshot)
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::vector<std::unique_ptr<ScopeStack>> stacks_;
};

/// RAII timer behind DCS_OBS_SCOPE. `name` must be a string literal.
class ScopeTimer {
 public:
  explicit ScopeTimer(const char* name) noexcept {
    Profiler& p = Profiler::instance();
    if (p.enabled()) {
      name_ = name;
      start_us_ = p.now_us();
    }
    if (p.sampling()) {
      stack_ = &p.local_stack();
      stack_->push(name, Profiler::thread_lane());
    }
  }
  ~ScopeTimer() {
    if (stack_ != nullptr) stack_->pop();
    if (name_ != nullptr) {
      Profiler& p = Profiler::instance();
      p.record(name_, start_us_, p.now_us() - start_us_);
    }
  }
  ScopeTimer(const ScopeTimer&) = delete;
  ScopeTimer& operator=(const ScopeTimer&) = delete;

 private:
  const char* name_ = nullptr;
  ScopeStack* stack_ = nullptr;
  double start_us_ = 0.0;
};

/// Per-scope aggregate for BENCH_*.json perf records.
struct ScopeStats {
  std::size_t count = 0;
  double total_us = 0.0;
  double max_us = 0.0;
  [[nodiscard]] double mean_us() const noexcept {
    return count > 0 ? total_us / static_cast<double>(count) : 0.0;
  }
};

using ProfileSummary = std::map<std::string, ScopeStats>;

[[nodiscard]] ProfileSummary summarize(const std::vector<ProfileEvent>& events);

/// Appends the spans to `tracer` as wall-domain 'X' events (one lane per
/// worker) and names the lanes "worker-<lane>" / "main".
void export_to(Tracer& tracer, const std::vector<ProfileEvent>& events);

}  // namespace dcs::obs

#define DCS_OBS_CONCAT_INNER(a, b) a##b
#define DCS_OBS_CONCAT(a, b) DCS_OBS_CONCAT_INNER(a, b)
/// Times the enclosing scope under `name` (a string literal) when the
/// process-wide Profiler is enabled.
#define DCS_OBS_SCOPE(name) \
  ::dcs::obs::ScopeTimer DCS_OBS_CONCAT(dcs_obs_scope_, __LINE__)(name)
