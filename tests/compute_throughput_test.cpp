#include "compute/throughput_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace dcs::compute {
namespace {

TEST(ThroughputModel, NormalizedToNormalCores) {
  const ThroughputModel m;
  EXPECT_DOUBLE_EQ(m.throughput(12), 1.0);
}

TEST(ThroughputModel, SublinearScaling) {
  const ThroughputModel m;  // alpha = 0.85
  EXPECT_NEAR(m.throughput(48), std::pow(4.0, 0.85), 1e-12);
  EXPECT_LT(m.throughput(48), 4.0);
  EXPECT_GT(m.throughput(48), 3.0);
}

TEST(ThroughputModel, PerCoreThroughputDecreases) {
  // The paper's SPECjbb2005 observation: per-core throughput decreases as
  // cores are added.
  const ThroughputModel m;
  double prev = 1e9;
  for (std::size_t n = 12; n <= 48; n += 4) {
    const double per_core = m.throughput(n) / static_cast<double>(n);
    EXPECT_LT(per_core, prev);
    prev = per_core;
  }
}

TEST(ThroughputModel, CoresForDemandCoversIt) {
  const ThroughputModel m;
  for (double d = 0.1; d <= 3.2; d += 0.1) {
    const std::size_t n = m.cores_for_demand(d);
    EXPECT_GE(m.throughput(n), d - 1e-9) << "demand " << d;
    if (n > 1) {
      EXPECT_LT(m.throughput(n - 1), d) << "demand " << d;
    }
  }
}

TEST(ThroughputModel, CoresForDemandEdges) {
  const ThroughputModel m;
  EXPECT_EQ(m.cores_for_demand(0.0), 0u);
  EXPECT_EQ(m.cores_for_demand(1.0), 12u);
}

TEST(ThroughputModel, PerfectScalingAlphaOne) {
  const ThroughputModel m({.alpha = 1.0, .normal_cores = 12});
  EXPECT_DOUBLE_EQ(m.throughput(48), 4.0);
  EXPECT_EQ(m.cores_for_demand(2.0), 24u);
}

TEST(ThroughputModel, Validation) {
  EXPECT_THROW((void)ThroughputModel({.alpha = 0.0, .normal_cores = 12}),
               std::invalid_argument);
  EXPECT_THROW((void)ThroughputModel({.alpha = 1.1, .normal_cores = 12}),
               std::invalid_argument);
  EXPECT_THROW((void)ThroughputModel({.alpha = 0.9, .normal_cores = 0}),
               std::invalid_argument);
  const ThroughputModel m;
  EXPECT_THROW((void)m.cores_for_demand(-1.0), std::invalid_argument);
}

}  // namespace
}  // namespace dcs::compute
