#include "obs/profile.h"

#include <algorithm>
#include <cstring>
#include <set>

namespace dcs::obs {
namespace {

thread_local std::uint32_t t_lane = 0;

}  // namespace

Profiler& Profiler::instance() {
  static Profiler profiler;
  return profiler;
}

Profiler::Profiler()
    : epoch_(std::chrono::steady_clock::now()),
      epoch_unix_us_(std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::system_clock::now().time_since_epoch())
                         .count()) {}

void Profiler::set_enabled(bool enabled) noexcept {
  enabled_.store(enabled, std::memory_order_relaxed);
}

void Profiler::set_sampling(bool sampling) noexcept {
  sampling_.store(sampling, std::memory_order_relaxed);
}

void Profiler::set_thread_lane(std::uint32_t lane) noexcept { t_lane = lane; }

std::uint32_t Profiler::thread_lane() noexcept { return t_lane; }

double Profiler::now_us() const noexcept {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Profiler::Buffer& Profiler::local_buffer() {
  // The profiler is a process singleton, so one thread-local slot suffices.
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    const std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
  }
  return *buffer;
}

ScopeStack& Profiler::local_stack() {
  // Storage is owned by the process singleton, so the sampler thread can
  // keep reading a stack after its owner thread exits.
  thread_local ScopeStack* stack = nullptr;
  if (stack == nullptr) {
    const std::lock_guard<std::mutex> lock(mu_);
    stacks_.push_back(std::make_unique<ScopeStack>());
    stack = stacks_.back().get();
  }
  return *stack;
}

std::vector<Profiler::StackSample> Profiler::snapshot_stacks() const {
  std::vector<StackSample> out;
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& stack : stacks_) {
    const char* frames[ScopeStack::kMaxDepth];
    StackSample sample;
    const std::size_t depth = stack->read(frames, &sample.lane);
    if (depth == 0) continue;
    sample.frames.assign(frames, frames + depth);
    out.push_back(std::move(sample));
  }
  return out;
}

void Profiler::record(const char* name, double start_us, double dur_us) {
  Buffer& buffer = local_buffer();
  const std::lock_guard<std::mutex> lock(buffer.mu);
  buffer.events.push_back(ProfileEvent{name, t_lane, start_us, dur_us});
}

std::vector<ProfileEvent> Profiler::collect() const {
  std::vector<ProfileEvent> out;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buffer : buffers_) {
      const std::lock_guard<std::mutex> buffer_lock(buffer->mu);
      out.insert(out.end(), buffer->events.begin(), buffer->events.end());
    }
  }
  // (lane, start, longest-first) so outer spans precede the spans they
  // enclose and the order is a function of the data alone.
  std::sort(out.begin(), out.end(),
            [](const ProfileEvent& a, const ProfileEvent& b) {
              if (a.lane != b.lane) return a.lane < b.lane;
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              if (a.dur_us != b.dur_us) return a.dur_us > b.dur_us;
              return std::strcmp(a.name, b.name) < 0;
            });
  return out;
}

void Profiler::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buffer : buffers_) {
    const std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    buffer->events.clear();
  }
}

ProfileSummary summarize(const std::vector<ProfileEvent>& events) {
  ProfileSummary summary;
  for (const ProfileEvent& e : events) {
    ScopeStats& stats = summary[e.name];
    ++stats.count;
    stats.total_us += e.dur_us;
    stats.max_us = std::max(stats.max_us, e.dur_us);
  }
  return summary;
}

void export_to(Tracer& tracer, const std::vector<ProfileEvent>& events) {
  std::set<std::uint32_t> named;
  for (const ProfileEvent& e : events) {
    // Name each lane once, ahead of its first span: a streaming tracer
    // writes every name_lane call through to its sinks.
    if (named.insert(e.lane).second) {
      tracer.name_lane(
          Domain::kWall, e.lane,
          e.lane == 0 ? "main" : "worker-" + std::to_string(e.lane));
    }
    TraceEvent t;
    t.domain = Domain::kWall;
    t.phase = 'X';
    t.ts_us = e.start_us;
    t.dur_us = e.dur_us;
    t.lane = e.lane;
    t.cat = "profile";
    t.name = e.name;
    tracer.append(std::move(t));
  }
}

}  // namespace dcs::obs
