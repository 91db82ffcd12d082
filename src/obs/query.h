// Offline trace analysis behind tools/trace_query: loads the repo's JSONL
// traces into one flat event list and computes per-scope duration stats,
// counter-track statistics and threshold-crossing windows — the questions
// every sprint trace gets asked ("how long were the sprints", "when did
// cb_trip_margin_s dip below 0.5 s", "which intervals violated the serving
// p99 SLO").
//
// Accepted inputs: every JSONL file of the telemetry schema (obs/sink.h) —
// a bench's `<name>_trace.jsonl`, a worker's telemetry stream and the
// dispatcher's merged `timeline.jsonl`. "ev" lines carry the events and
// "lane" lines the lane names, and the timeline's "src" tag survives into
// QueryEvent::src so stats can be grouped per shard process; lines of any
// other "t" type (header, proc, stack, ...) are skipped. The same decoded
// trace feeds the Perfetto renderer (obs/perfetto.h).
//
// Counter tracks are step functions: a sample holds until the next sample
// on its (src, lane) track. Exporters write a track only where it changes
// (obs/counters.h), and every statistic here reads the step function, so a
// change-only trace and a per-tick trace of the same run give the same
// answers.
//
// All results are deterministic: events keep file order, groups iterate in
// sorted key order, so CSV output is byte-stable and diffable across runs
// of the same trace (the perf-gate trend workflow).
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace dcs::obs::query {

/// One trace event, decoded from any input format. `src` is the producing
/// process ("" for single-process traces; "dispatcher"/"shard0#1"/... in
/// merged timelines).
struct QueryEvent {
  std::string src;
  std::string domain;  // "sim" | "wall"
  char ph = 'i';
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::uint32_t lane = 0;
  std::string cat;
  std::string name;
  /// Counter payload ('C' events with a numeric "value" arg).
  double value = 0.0;
  bool has_value = false;
  /// Decoded args of instant ('i') events, in sorted key order. Values are
  /// canonical literals: strings raw (unquoted), numbers via
  /// json::number_to_string, bools "true"/"false". Only instants keep
  /// their args — they carry the structured payloads (decision records,
  /// fault injections); span/counter args stay on the cheaper paths.
  std::vector<std::pair<std::string, std::string>> args;
};

struct TraceData {
  std::vector<QueryEvent> events;
  /// Lane names by (src, domain, lane), each the last "lane" line's name
  /// for its lane (a lane renamed mid-trace keeps its latest name).
  std::map<std::tuple<std::string, std::string, std::uint32_t>, std::string>
      lane_names;
};

/// Loads a JSONL trace. A final line without its newline is a torn write
/// (a worker killed mid-line) and is skipped, as are blank lines and lines
/// of a "t" type other than "ev" and "lane". Throws std::invalid_argument,
/// naming the file and line, when the file cannot be read or a complete
/// line is not a JSON object with a string "t" (a Chrome trace-event
/// document, a line of the old plain schema, a damaged line) or is a
/// malformed "ev" or "lane" line (a lane that is not a whole number in
/// [0, 2^32) included).
[[nodiscard]] TraceData load_trace(const std::string& path);

/// Duration statistics read from the profiler's scope summaries (instants
/// of cat "scope", one per (lane, scope path): obs/profile.h), grouped by
/// (src, scope name). Each name adds up its paths and lanes; spans are not
/// counted again.
struct ScopeStat {
  std::string src;
  std::string name;
  std::size_t count = 0;
  double total_us = 0.0;
  double min_us = 0.0;
  double max_us = 0.0;
  [[nodiscard]] double mean_us() const noexcept {
    return count > 0 ? total_us / static_cast<double>(count) : 0.0;
  }
};
[[nodiscard]] std::vector<ScopeStat> scope_stats(const TraceData& trace);

/// Value statistics over 'C' counter samples, grouped by (src, track
/// name) across lanes.
struct CounterStat {
  std::string src;
  std::string name;
  /// Emitted samples (a change-only track holds fewer than its run's ticks).
  std::size_t points = 0;
  double min = 0.0;
  double max = 0.0;
  /// Time-weighted mean of the step function: each sample holds until the
  /// next sample on its (src, lane) track, pooled over the group's lanes.
  /// A group whose tracks span no time (one sample each) reads the plain
  /// mean of its samples.
  double mean = 0.0;
  /// The group's last sample in file order.
  double last = 0.0;
};
[[nodiscard]] std::vector<CounterStat> counter_stats(const TraceData& trace);

/// A maximal interval during which a counter track satisfied the threshold
/// predicate. Counter tracks are step functions: a sample's value holds
/// until the track's next sample; an interval still open at the track's
/// last sample closes there (end_us == last sample's ts). Each (src, lane)
/// pair is an independent track — sweep benches trace every grid task in
/// its own lane, and interleaving those step functions would shred the
/// windows.
struct ThresholdWindow {
  std::string src;
  std::uint32_t lane = 0;
  double start_us = 0.0;
  double end_us = 0.0;
  /// Most extreme value inside the window (min for `below`, max otherwise).
  double extreme = 0.0;
  [[nodiscard]] double duration_us() const noexcept {
    return end_us - start_us;
  }
};

struct ThresholdQuery {
  /// Counter track name (QueryEvent::name of the 'C' samples).
  std::string track;
  double threshold = 0.0;
  /// true: windows where value < threshold; false: value > threshold.
  bool below = true;
  /// Windows shorter than this are dropped (0 keeps everything).
  double min_duration_us = 0.0;
};

/// Threshold-crossing windows per (source process, lane), in
/// (src, lane, start) order.
[[nodiscard]] std::vector<ThresholdWindow> threshold_windows(
    const TraceData& trace, const ThresholdQuery& query);

// ---------------------------------------------------------------------------
// Decision provenance (obs/decision.h records in the trace)

/// One DecisionRecord recovered from a cat="decision" instant event.
struct DecisionRecord {
  /// Index of the backing event in TraceData::events (for args access).
  std::size_t event_index = 0;
  std::string src;
  std::uint32_t lane = 0;
  double ts_us = 0.0;
  std::string rule;   ///< event name, e.g. "sprint-onset"
  std::string id;     ///< "d<lane>-<seq>"
  std::string cause;  ///< cited cause id; "" for chain roots
};

/// Every decision record in the trace, in file order.
[[nodiscard]] std::vector<DecisionRecord> decision_records(
    const TraceData& trace);

/// A reconstructed causal chain: the queried record first, then its cause,
/// its cause's cause, ... back to a root (a record citing no cause).
/// Cause ids resolve to the *latest* earlier record (file order) with that
/// id in the same src — lanes may be reused across sweeps within one file,
/// so "latest earlier" picks the instance actually in scope.
struct ExplainChain {
  /// Indices into the decision_records() vector, target first.
  std::vector<std::size_t> chain;
  /// The cause id the walk could not resolve; "" when the chain is
  /// complete (ends at a root).
  std::string dangling;
  [[nodiscard]] bool complete() const noexcept { return dangling.empty(); }
};

[[nodiscard]] ExplainChain explain_record(
    const std::vector<DecisionRecord>& records, std::size_t target);

/// Per-(src, rule) decision inventory with chain-resolution counts.
struct AuditRow {
  std::string src;
  std::string rule;
  std::size_t count = 0;     ///< records of this rule
  std::size_t roots = 0;     ///< records citing no cause
  std::size_t resolved = 0;  ///< records whose full chain reaches a root
  std::size_t dangling = 0;  ///< records whose chain hits a missing id
};

[[nodiscard]] std::vector<AuditRow> audit(
    const std::vector<DecisionRecord>& records);

/// A decreasing step in a counter track that is contractually monotone
/// (e.g. slo_budget_violations). Tracks are per (src, lane), in time order.
struct MonotoneViolation {
  std::string src;
  std::uint32_t lane = 0;
  double ts_us = 0.0;
  double prev = 0.0;
  double value = 0.0;
};

[[nodiscard]] std::vector<MonotoneViolation> counter_monotone(
    const TraceData& trace, const std::string& track);

// ---------------------------------------------------------------------------
// Writers. CSV: header + one row per entry. JSONL: one object per row with
// a fixed key order. Both byte-stable (numbers via the exact-round-trip
// json::number_to_string renderer).

void write_scope_csv(std::ostream& out, const std::vector<ScopeStat>& stats);
void write_counter_csv(std::ostream& out,
                       const std::vector<CounterStat>& stats);
void write_window_csv(std::ostream& out,
                      const std::vector<ThresholdWindow>& windows);
void write_decision_csv(std::ostream& out,
                        const std::vector<DecisionRecord>& records);
/// One row per chain link: target id, depth (0 = the explained record),
/// then the link's fields; a dangling chain ends with a "missing" row.
void write_explain_csv(std::ostream& out,
                       const std::vector<DecisionRecord>& records,
                       const std::vector<ExplainChain>& chains);
void write_audit_csv(std::ostream& out, const std::vector<AuditRow>& rows);

void write_scope_jsonl(std::ostream& out, const std::vector<ScopeStat>& stats);
void write_counter_jsonl(std::ostream& out,
                         const std::vector<CounterStat>& stats);
void write_window_jsonl(std::ostream& out,
                        const std::vector<ThresholdWindow>& windows);
/// JSONL decision rows include the record's full args object (inputs,
/// thresholds, extras) — the machine-readable face of the audit plane.
void write_decision_jsonl(std::ostream& out, const TraceData& trace,
                          const std::vector<DecisionRecord>& records);
void write_explain_jsonl(std::ostream& out, const TraceData& trace,
                         const std::vector<DecisionRecord>& records,
                         const std::vector<ExplainChain>& chains);
void write_audit_jsonl(std::ostream& out, const std::vector<AuditRow>& rows);

}  // namespace dcs::obs::query
