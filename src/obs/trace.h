// Structured trace events for the sprinting stack, written as JSONL lines
// of the telemetry schema (obs/sink.h: `{"t":"ev",...}` events and
// `{"t":"lane",...}` lane names), the one encoding a run writes. Perfetto
// files are rendered from that JSONL afterwards (obs/perfetto.h).
//
// Two clock domains share one Tracer:
//  * kSim — events stamped with *simulated* time (controller phase
//    transitions, fault injection, watchdog violations, recorder counter
//    tracks). These are part of the deterministic result surface: for a
//    fixed configuration the sim-event stream is bit-identical for any
//    thread count. Sweeps get this by giving each task its own Tracer (the
//    task owns its slot, same contract as the runner's result rows) and
//    merging in task order.
//  * kWall — wall-clock profiling spans from obs/profile.h. They carry
//    "where did the time go", never results, and are not deterministic.
//
// A Tracer either buffers events in memory (the default — events() exposes
// them for tests and task-order merging) or forwards them to a TraceSink
// (obs/sink.h) for bounded-memory streaming of traces larger than RAM.
//
// The Tracer itself is not thread-safe: one Tracer per run/task, merged
// afterwards on one thread.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/units.h"

namespace dcs::obs {

enum class Domain { kSim = 0, kWall = 1 };

[[nodiscard]] std::string_view to_string(Domain domain) noexcept;

/// One key/value event argument. `value` is a pre-rendered JSON literal
/// (a shortest-round-trip number — strtod recovers the exact bits — or an
/// escaped quoted string), so writers can emit it verbatim.
struct TraceArg {
  std::string key;
  std::string value;
};

[[nodiscard]] TraceArg arg(std::string key, double value);
[[nodiscard]] TraceArg arg(std::string key, std::string_view value);
[[nodiscard]] TraceArg arg(std::string key, bool value);

struct TraceEvent {
  Domain domain = Domain::kSim;
  /// Trace-event phase: 'i' instant, 'X' complete span, 'C' counter.
  char phase = 'i';
  /// Microseconds: simulated time (kSim) or wall time since the profiler
  /// epoch (kWall).
  double ts_us = 0.0;
  /// Span length ('X' events only).
  double dur_us = 0.0;
  /// Lane (a thread track in Perfetto): sweep task index for sim events,
  /// worker lane for wall events.
  std::uint32_t lane = 0;
  std::string cat;
  std::string name;
  std::vector<TraceArg> args;
};

/// Consumer of a Tracer's event stream. Implementations decide what storing
/// an event means: the Tracer's built-in buffer, or a bounded-memory file
/// stream (obs/sink.h). Sinks see events in append order; lane metadata
/// may arrive at any point before finalize().
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void write(const TraceEvent& event) = 0;
  virtual void write_lane_name(Domain domain, std::uint32_t lane,
                               const std::string& name) = 0;
  /// Flushes buffered events and completes the output (for file sinks: a
  /// valid, loadable trace). Idempotent; writing after finalize() is a
  /// contract violation.
  virtual void finalize() = 0;
  /// False once the sink can no longer store events (file sinks: a write
  /// failed, e.g. disk full), so a full disk cannot silently truncate the
  /// output while the run reports success.
  [[nodiscard]] virtual bool healthy() const { return true; }
};

class Tracer {
 public:
  Tracer() = default;
  /// A streaming Tracer: every appended event is forwarded to `sink`
  /// instead of being buffered (events() stays empty, count() still
  /// tracks totals). `sink` must outlive the Tracer; the caller finalizes.
  explicit Tracer(TraceSink* sink) : sink_(sink) {}

  /// Lane stamped on subsequently appended sim events (sweeps set this to
  /// the task index so merged traces keep one lane per task).
  void set_lane(std::uint32_t lane) noexcept { lane_ = lane; }
  [[nodiscard]] std::uint32_t lane() const noexcept { return lane_; }

  /// Appends a sim-domain instant event at simulated time `t`.
  void instant(Duration t, std::string_view cat, std::string_view name,
               std::vector<TraceArg> args = {});
  /// Appends a fully-specified event (profiling export, counter tracks,
  /// tests). A streaming tracer hands the event to its sink as is, so a
  /// caller that reuses one event pays no copy.
  void append(const TraceEvent& event);
  void append(TraceEvent&& event);

  /// Appends every event of `other` in order (task-order sweep merging).
  /// Lane names are merged too; `other` is left empty, so a second merge
  /// from the same source is a no-op rather than a silent duplication.
  /// Self-merge is a precondition violation.
  void merge_from(Tracer&& other);

  /// Names a lane: a "lane" line in JSONL, which names the lane's thread
  /// track when the trace is rendered for Perfetto.
  void name_lane(Domain domain, std::uint32_t lane, std::string name);

  /// Buffered events (empty in streaming mode — the sink consumed them).
  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] bool empty() const noexcept {
    return counts_[0] + counts_[1] == 0;
  }
  /// Events appended so far per domain — maintained in both buffered and
  /// streaming mode.
  [[nodiscard]] std::size_t count(Domain domain) const noexcept {
    return counts_[static_cast<int>(domain)];
  }
  void clear();

 private:
  std::uint32_t lane_ = 0;
  TraceSink* sink_ = nullptr;
  std::size_t counts_[2] = {0, 0};
  std::vector<TraceEvent> events_;
  std::map<std::pair<Domain, std::uint32_t>, std::string> lane_names_;
};

namespace detail {
// The one JSONL renderer: the JSONL stream sink and the telemetry stream
// write their "ev" and "lane" lines through it.
// It appends to a caller buffer with std::to_chars (strings through
// json::append_string), so a sink renders an event where it arrives with
// no stream formatting and no allocation once the buffer has grown.
[[nodiscard]] std::string render_number(double v);
void append_number(std::string& out, double v);
/// `{"t":"ev","domain":...,"ph":...,"ts":...[,"dur":...],"lane":...,
/// "cat":...,"name":...[,"args":{...}]}` without the trailing newline.
void append_event_line(std::string& out, const TraceEvent& e);
/// `{"t":"lane","domain":...,"lane":...,"name":...}`, no trailing newline.
void append_lane_line(std::string& out, Domain domain, std::uint32_t lane,
                      std::string_view name);
}  // namespace detail

}  // namespace dcs::obs
