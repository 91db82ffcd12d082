#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

namespace dcs::obs {
namespace {

TEST(ObsMetrics, CounterIsMonotoneAndGaugeTracksExtremes) {
  MetricsRegistry registry;
  Counter& c = registry.counter("ticks_total");
  c.inc();
  c.inc(2.5);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
  EXPECT_THROW(c.inc(-1.0), std::invalid_argument);

  Gauge& g = registry.gauge("ups_soc");
  g.set(0.8);
  EXPECT_DOUBLE_EQ(g.value(), 0.8);
}

TEST(ObsMetrics, SameIdentityReturnsSameInstrument) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x", {{"mode", "greedy"}});
  Counter& b = registry.counter("x", {{"mode", "greedy"}});
  EXPECT_EQ(&a, &b);
  // Different labels are a different identity.
  Counter& c = registry.counter("x", {{"mode", "bound"}});
  EXPECT_NE(&a, &c);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(ObsMetrics, KindMismatchThrows) {
  MetricsRegistry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), std::invalid_argument);
  registry.histogram("h", {1.0, 2.0});
  EXPECT_THROW(registry.histogram("h", {1.0, 3.0}), std::invalid_argument);
}

TEST(ObsMetrics, HistogramBucketsAreCumulativeWithImplicitInf) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("sprint_degree", {1.0, 2.0, 3.0});
  h.observe(0.5);
  h.observe(1.0);  // falls in the le=1 bucket (upper bound inclusive)
  h.observe(2.5);
  h.observe(10.0);  // +Inf bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 14.0);
  const std::vector<std::size_t> cum = h.cumulative_counts();
  ASSERT_EQ(cum.size(), 4u);  // 3 finite bounds + Inf
  EXPECT_EQ(cum[0], 2u);
  EXPECT_EQ(cum[1], 2u);
  EXPECT_EQ(cum[2], 3u);
  EXPECT_EQ(cum[3], 4u);
}

TEST(ObsMetrics, PrometheusTextFormat) {
  MetricsRegistry registry;
  registry.counter("faults_total", {{"kind", "chiller"}}).inc(3);
  registry.gauge("ups_soc").set(0.25);
  registry.histogram("degree", {1.0, 2.0}).observe(1.5);
  std::ostringstream out;
  registry.write_prometheus(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE faults_total counter"), std::string::npos);
  EXPECT_NE(text.find("faults_total{kind=\"chiller\"} 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ups_soc gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE degree histogram"), std::string::npos);
  EXPECT_NE(text.find("degree_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("degree_count 1"), std::string::npos);
}

TEST(ObsMetrics, CsvIsLongFormatAndJsonParsesShape) {
  MetricsRegistry registry;
  registry.gauge("cb_trip_margin_s", {{"sweep", "a,b"}}).set(42.0);
  std::ostringstream csv;
  registry.write_csv(csv);
  EXPECT_NE(csv.str().find("metric,kind,labels,stat,value"),
            std::string::npos);
  EXPECT_NE(csv.str().find("cb_trip_margin_s,gauge"), std::string::npos);

  std::ostringstream json;
  registry.write_json(json);
  EXPECT_NE(json.str().find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.str().find("\"cb_trip_margin_s\""), std::string::npos);
}

TEST(ObsMetrics, SnapshotOrderIsDeterministic) {
  // Insertion order differs; output order must not.
  MetricsRegistry a;
  a.counter("z").inc();
  a.counter("a").inc();
  MetricsRegistry b;
  b.counter("a").inc();
  b.counter("z").inc();
  std::ostringstream sa, sb;
  a.write_csv(sa);
  b.write_csv(sb);
  EXPECT_EQ(sa.str(), sb.str());
}

}  // namespace
}  // namespace dcs::obs
