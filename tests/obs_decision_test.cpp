// Decision provenance (obs/decision.h) and SLO error-budget accounting
// (serving/error_budget.h): record layout, the trigger/consequence cause
// chain, budget math, and the offline explain/audit reconstruction in
// obs/query.h.
#include "obs/decision.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/query.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "serving/error_budget.h"
#include "util/units.h"

namespace dcs::obs {
namespace {

const TraceArg* find_arg(const TraceEvent& event, std::string_view key) {
  for (const TraceArg& a : event.args) {
    if (a.key == key) return &a;
  }
  return nullptr;
}

TEST(Decision, RuleNamesAndTriggerSplit) {
  EXPECT_EQ(to_string(DecisionRule::kFaultInject), "fault-inject");
  EXPECT_EQ(to_string(DecisionRule::kSloLatchSet), "slo-latch-set");
  EXPECT_EQ(to_string(DecisionRule::kSprintOnset), "sprint-onset");
  EXPECT_EQ(to_string(DecisionRule::kLadderShed), "ladder-shed");
  EXPECT_EQ(to_string(DecisionRule::kSloBudgetExhausted),
            "slo-budget-exhausted");

  EXPECT_TRUE(is_trigger(DecisionRule::kFaultInject));
  EXPECT_TRUE(is_trigger(DecisionRule::kBurstStart));
  EXPECT_TRUE(is_trigger(DecisionRule::kSloLatchSet));
  EXPECT_FALSE(is_trigger(DecisionRule::kSprintOnset));
  EXPECT_FALSE(is_trigger(DecisionRule::kSloLatchRelease));
  EXPECT_FALSE(is_trigger(DecisionRule::kAdmissionClamp));
}

TEST(Decision, EmitLaysOutSchemaIdCauseInputsThresholdsExtras) {
  Tracer tracer;
  tracer.set_lane(3);
  DecisionLog log(&tracer);
  log.set_now(Duration::seconds(42));

  const std::string id =
      log.emit(DecisionRule::kBurstStart, {{"demand", 1.25}}, {{"demand", 1.0}},
               {arg("note", std::string_view("fixture"))});
  EXPECT_EQ(id, "d3-1");
  EXPECT_EQ(log.count(), 1u);

  ASSERT_EQ(tracer.events().size(), 1u);
  const TraceEvent& e = tracer.events().front();
  EXPECT_EQ(e.phase, 'i');
  EXPECT_EQ(e.cat, "decision");
  EXPECT_EQ(e.name, "burst-start");
  EXPECT_EQ(e.ts_us, 42e6);
  EXPECT_EQ(e.lane, 3u);
  ASSERT_NE(find_arg(e, "schema"), nullptr);
  ASSERT_NE(find_arg(e, "id"), nullptr);
  EXPECT_EQ(find_arg(e, "id")->value, "\"d3-1\"");
  // First record: no cause yet.
  EXPECT_EQ(find_arg(e, "cause"), nullptr);
  ASSERT_NE(find_arg(e, "in_demand"), nullptr);
  EXPECT_EQ(find_arg(e, "in_demand")->value, "1.25");
  ASSERT_NE(find_arg(e, "th_demand"), nullptr);
  EXPECT_EQ(find_arg(e, "th_demand")->value, "1");
  ASSERT_NE(find_arg(e, "note"), nullptr);
  EXPECT_EQ(find_arg(e, "note")->value, "\"fixture\"");
}

TEST(Decision, TriggersChainAndConsequencesCiteLatestTrigger) {
  Tracer tracer;
  DecisionLog log(&tracer);
  EXPECT_EQ(log.current_cause(), "");

  // Trigger 1 starts a chain; consequence cites it without replacing it.
  const std::string t1 = log.emit(DecisionRule::kFaultInject, {}, {});
  EXPECT_EQ(log.current_cause(), t1);
  const std::string c1 = log.emit(DecisionRule::kLadderShed, {}, {});
  EXPECT_EQ(log.current_cause(), t1);
  // Trigger 2 cites trigger 1 (emitted before the cause swap), then owns
  // the chain.
  const std::string t2 = log.emit(DecisionRule::kBurstEnd, {}, {});
  EXPECT_EQ(log.current_cause(), t2);
  const std::string c2 = log.emit(DecisionRule::kSprintEnd, {}, {});

  const std::vector<TraceEvent>& events = tracer.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(find_arg(events[0], "cause"), nullptr);
  EXPECT_EQ(find_arg(events[1], "cause")->value, "\"" + t1 + "\"");
  EXPECT_EQ(find_arg(events[2], "cause")->value, "\"" + t1 + "\"");
  EXPECT_EQ(find_arg(events[3], "cause")->value, "\"" + t2 + "\"");
  EXPECT_EQ(c1, "d0-2");
  EXPECT_EQ(c2, "d0-4");
}

// ---------------------------------------------------------------------------
// Error budget

TEST(ErrorBudget, RemainingAndViolationCounting) {
  serving::ErrorBudget budget(
      {.target_p99_s = 0.1, .budget_fraction = 0.5, .fast_window = 4,
       .slow_window = 8});
  // Two good, two violating ticks: violations / (0.5 * 4 ticks) = 1 -> 0.
  budget.observe(0.05);
  budget.observe(0.05);
  EXPECT_EQ(budget.violations(), 0u);
  EXPECT_EQ(budget.remaining(), 1.0);
  budget.observe(0.2);
  budget.observe(0.2);
  EXPECT_EQ(budget.ticks(), 4u);
  EXPECT_EQ(budget.violations(), 2u);
  EXPECT_EQ(budget.remaining(), 0.0);
  EXPECT_TRUE(budget.exhausted());
}

TEST(ErrorBudget, BurnRatesUseTheirWindows) {
  serving::ErrorBudget budget(
      {.target_p99_s = 0.1, .budget_fraction = 0.25, .fast_window = 2,
       .slow_window = 4});
  budget.observe(0.2);   // violation
  budget.observe(0.05);
  budget.observe(0.05);
  // Fast window (last 2): 0 violations -> burn 0. Slow window (all 3):
  // 1/3 violating over budget 0.25 -> burn 4/3.
  EXPECT_EQ(budget.burn_fast(), 0.0);
  EXPECT_NEAR(budget.burn_slow(), (1.0 / 3.0) / 0.25, 1e-12);
  budget.observe(0.2);
  // Fast window now [good, violation] -> 0.5 / 0.25 = 2.
  EXPECT_NEAR(budget.burn_fast(), 2.0, 1e-12);
}

TEST(ErrorBudget, ExhaustionNeedsAFullFastWindow) {
  serving::ErrorBudget budget(
      {.target_p99_s = 0.1, .budget_fraction = 0.01, .fast_window = 8,
       .slow_window = 8});
  budget.observe(0.2);
  // remaining() is already 0, but one tick of history is no verdict.
  EXPECT_EQ(budget.remaining(), 0.0);
  EXPECT_FALSE(budget.exhausted());
  for (int i = 0; i < 7; ++i) budget.observe(0.2);
  EXPECT_TRUE(budget.exhausted());
}

TEST(ErrorBudget, RejectsInvalidParams) {
  EXPECT_THROW(serving::ErrorBudget({.target_p99_s = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(serving::ErrorBudget({.budget_fraction = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(serving::ErrorBudget({.budget_fraction = 1.5}),
               std::invalid_argument);
  EXPECT_THROW(serving::ErrorBudget({.fast_window = 0}),
               std::invalid_argument);
  EXPECT_THROW(
      serving::ErrorBudget({.fast_window = 10, .slow_window = 5}),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Offline reconstruction (obs/query.h) over a real emitted stream

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// Emits a two-lane decision stream through real DecisionLogs, streams
/// it to `path` as a traced bench does and loads it back through the query
/// layer.
query::TraceData emitted_fixture(const std::string& path) {
  JsonlStreamSink sink(path);
  Tracer tracer(&sink);
  {
    Tracer lane0;
    lane0.set_lane(0);
    DecisionLog log(&lane0);
    log.set_now(Duration::seconds(1));
    log.emit(DecisionRule::kFaultInject, {{"magnitude", 0.4}}, {});
    log.set_now(Duration::seconds(2));
    log.emit(DecisionRule::kLadderShed, {{"severity", 0.4}},
             {{"severe_severity", 0.5}});
    log.set_now(Duration::seconds(3));
    log.emit(DecisionRule::kBurstStart, {{"demand", 1.5}}, {{"demand", 1.0}});
    log.set_now(Duration::seconds(4));
    log.emit(DecisionRule::kSprintOnset, {{"degree", 2.0}}, {{"degree", 1.0}});
    tracer.merge_from(std::move(lane0));
  }
  {
    // A second lane with its own chain: ids stay unique per lane.
    Tracer lane1;
    lane1.set_lane(1);
    DecisionLog log(&lane1);
    log.set_now(Duration::seconds(1));
    log.emit(DecisionRule::kBurstStart, {{"demand", 1.2}}, {{"demand", 1.0}});
    log.set_now(Duration::seconds(2));
    log.emit(DecisionRule::kSprintOnset, {{"degree", 1.5}}, {{"degree", 1.0}});
    tracer.merge_from(std::move(lane1));
  }
  sink.finalize();
  return query::load_trace(path);
}

TEST(DecisionQuery, RecordsRoundTripThroughTraceJsonl) {
  const std::string path = temp_path("decision_roundtrip.jsonl");
  const query::TraceData trace = emitted_fixture(path);
  const std::vector<query::DecisionRecord> records =
      query::decision_records(trace);
  ASSERT_EQ(records.size(), 6u);
  EXPECT_EQ(records[0].rule, "fault-inject");
  EXPECT_EQ(records[0].id, "d0-1");
  EXPECT_EQ(records[0].cause, "");
  EXPECT_EQ(records[0].ts_us, 1e6);
  EXPECT_EQ(records[1].rule, "ladder-shed");
  EXPECT_EQ(records[1].cause, "d0-1");
  EXPECT_EQ(records[3].rule, "sprint-onset");
  EXPECT_EQ(records[3].cause, "d0-3");
  EXPECT_EQ(records[4].lane, 1u);
  EXPECT_EQ(records[4].id, "d1-1");
  std::remove(path.c_str());
}

TEST(DecisionQuery, ExplainWalksBackToTheRoot) {
  const std::string path = temp_path("decision_explain.jsonl");
  const query::TraceData trace = emitted_fixture(path);
  const std::vector<query::DecisionRecord> records =
      query::decision_records(trace);

  // Lane 0 sprint-onset -> burst-start -> fault-inject (the burst trigger
  // cites the fault chain that preceded it).
  const query::ExplainChain chain = query::explain_record(records, 3);
  EXPECT_TRUE(chain.complete());
  ASSERT_EQ(chain.chain.size(), 3u);
  EXPECT_EQ(records[chain.chain[0]].rule, "sprint-onset");
  EXPECT_EQ(records[chain.chain[1]].rule, "burst-start");
  EXPECT_EQ(records[chain.chain[2]].rule, "fault-inject");

  // Lane 1's chain is independent of lane 0's.
  const query::ExplainChain lane1 = query::explain_record(records, 5);
  EXPECT_TRUE(lane1.complete());
  ASSERT_EQ(lane1.chain.size(), 2u);
  EXPECT_EQ(records[lane1.chain[1]].id, "d1-1");
  std::remove(path.c_str());
}

TEST(DecisionQuery, ExplainReportsDanglingCauses) {
  std::vector<query::DecisionRecord> records(1);
  records[0].rule = "sprint-onset";
  records[0].id = "d0-9";
  records[0].cause = "d0-8";  // never emitted
  const query::ExplainChain chain = query::explain_record(records, 0);
  EXPECT_FALSE(chain.complete());
  EXPECT_EQ(chain.dangling, "d0-8");
  ASSERT_EQ(chain.chain.size(), 1u);
}

TEST(DecisionQuery, ExplainResolvesDuplicateIdsToTheLatestEarlier) {
  // Lane reuse across two sweeps in one file: the same id appears twice;
  // a later consequence must bind to the nearest earlier instance.
  std::vector<query::DecisionRecord> records(3);
  records[0].rule = "burst-start";
  records[0].id = "d0-1";
  records[0].ts_us = 1.0;
  records[1].rule = "burst-start";
  records[1].id = "d0-1";
  records[1].ts_us = 2.0;
  records[2].rule = "sprint-onset";
  records[2].id = "d0-2";
  records[2].cause = "d0-1";
  records[2].ts_us = 3.0;
  const query::ExplainChain chain = query::explain_record(records, 2);
  EXPECT_TRUE(chain.complete());
  ASSERT_EQ(chain.chain.size(), 2u);
  EXPECT_EQ(chain.chain[1], 1u);
}

TEST(DecisionQuery, AuditCountsRulesAndResolution) {
  const std::string path = temp_path("decision_audit.jsonl");
  const query::TraceData trace = emitted_fixture(path);
  const std::vector<query::AuditRow> rows =
      query::audit(query::decision_records(trace));
  ASSERT_EQ(rows.size(), 4u);  // sorted by (src, rule)
  EXPECT_EQ(rows[0].rule, "burst-start");
  EXPECT_EQ(rows[0].count, 2u);
  EXPECT_EQ(rows[0].roots, 1u);  // lane 1's burst-start has no cause
  EXPECT_EQ(rows[0].resolved, 2u);
  EXPECT_EQ(rows[0].dangling, 0u);
  EXPECT_EQ(rows[3].rule, "sprint-onset");
  EXPECT_EQ(rows[3].count, 2u);
  EXPECT_EQ(rows[3].resolved, 2u);
  std::remove(path.c_str());
}

TEST(DecisionQuery, CounterMonotoneFlagsDecreasesPerLane) {
  const std::string path = temp_path("decision_monotone.jsonl");
  std::ofstream out(path, std::ios::binary);
  const auto sample = [&](int lane, double ts, double value) {
    out << "{\"t\":\"ev\",\"domain\":\"sim\",\"ph\":\"C\",\"ts\":" << ts
        << ",\"lane\":" << lane
        << ",\"name\":\"slo_budget_violations\",\"args\":{\"value\":" << value
        << "}}\n";
  };
  sample(0, 0, 0);
  sample(0, 10, 2);
  sample(1, 5, 5);  // other lane's lower value must not trip lane 0
  sample(0, 20, 1);  // the actual decrease
  out.close();

  const std::vector<query::MonotoneViolation> violations =
      query::counter_monotone(query::load_trace(path), "slo_budget_violations");
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].lane, 0u);
  EXPECT_EQ(violations[0].ts_us, 20.0);
  EXPECT_EQ(violations[0].prev, 2.0);
  EXPECT_EQ(violations[0].value, 1.0);
  std::remove(path.c_str());
}

TEST(DecisionQuery, WritersAreByteStable) {
  const std::string path = temp_path("decision_writers.jsonl");
  const query::TraceData trace = emitted_fixture(path);
  const std::vector<query::DecisionRecord> records =
      query::decision_records(trace);
  std::vector<query::ExplainChain> chains;
  chains.push_back(query::explain_record(records, 3));

  std::ostringstream csv_a;
  std::ostringstream csv_b;
  query::write_decision_csv(csv_a, records);
  query::write_decision_csv(csv_b, records);
  EXPECT_EQ(csv_a.str(), csv_b.str());
  EXPECT_EQ(csv_a.str().substr(0, csv_a.str().find('\n')),
            "src,lane,ts_us,rule,id,cause");

  std::ostringstream jsonl_a;
  std::ostringstream jsonl_b;
  query::write_decision_jsonl(jsonl_a, trace, records);
  query::write_decision_jsonl(jsonl_b, trace, records);
  EXPECT_EQ(jsonl_a.str(), jsonl_b.str());
  // Rows carry the full args payload.
  EXPECT_NE(jsonl_a.str().find("\"in_demand\":1.5"), std::string::npos);

  std::ostringstream explain_csv;
  query::write_explain_csv(explain_csv, records, chains);
  // Three links of the lane-0 sprint chain under one target id.
  EXPECT_NE(explain_csv.str().find("d0-4,0,sprint-onset"), std::string::npos);
  EXPECT_NE(explain_csv.str().find("d0-4,2,fault-inject"), std::string::npos);

  std::ostringstream audit_jsonl;
  query::write_audit_jsonl(audit_jsonl, query::audit(records));
  EXPECT_NE(audit_jsonl.str().find("\"rule\":\"sprint-onset\",\"count\":2"),
            std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dcs::obs
