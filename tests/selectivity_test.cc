#include "src/estimate/selectivity.h"

#include "src/common/rng.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/histogram/static_equi.h"
#include "src/metrics/ks.h"
#include "tests/test_util.h"

namespace dynhist {
namespace {

TEST(SelectivityTest, CardinalitiesOnExactModel) {
  // 4 points at 10, 6 at 20.
  const auto model = CompiledSnapshot::Compile(
      HistogramModel::FromSimpleBuckets({{10, 11, 4.0}, {20, 21, 6.0}}));
  const SelectivityEstimator est(model);
  EXPECT_DOUBLE_EQ(est.CardinalityEquals(10), 4.0);
  EXPECT_DOUBLE_EQ(est.CardinalityEquals(15), 0.0);
  EXPECT_DOUBLE_EQ(est.CardinalityRange(10, 20), 10.0);
  EXPECT_DOUBLE_EQ(est.CardinalityRange(11, 19), 0.0);
  EXPECT_DOUBLE_EQ(est.CardinalityAtMost(10), 4.0);
  EXPECT_DOUBLE_EQ(est.CardinalityAtLeast(20), 6.0);
  EXPECT_DOUBLE_EQ(est.CardinalityAtLeast(11), 6.0);
}

TEST(SelectivityTest, SelectivitiesAreFractions) {
  const auto model = CompiledSnapshot::Compile(
      HistogramModel::FromSimpleBuckets({{0, 10, 30.0}, {10, 20, 10.0}}));
  const SelectivityEstimator est(model);
  EXPECT_DOUBLE_EQ(est.SelectivityRange(0, 19), 1.0);
  EXPECT_DOUBLE_EQ(est.SelectivityAtMost(9), 0.75);
  EXPECT_DOUBLE_EQ(est.SelectivityAtLeast(10), 0.25);
  EXPECT_NEAR(est.SelectivityEquals(5), 3.0 / 40.0, 1e-12);
}

TEST(SelectivityTest, EmptyModelGivesZeroSelectivity) {
  const CompiledSnapshot model;  // the empty arena
  const SelectivityEstimator est(model);
  EXPECT_DOUBLE_EQ(est.SelectivityRange(0, 100), 0.0);
  EXPECT_DOUBLE_EQ(est.CardinalityEquals(5), 0.0);
}

TEST(SelectivityTest, OpenAndClosedRangesAgree) {
  Rng rng(1);
  FrequencyVector data(200);
  for (int i = 0; i < 2'000; ++i) data.Insert(rng.UniformInt(0, 199));
  const auto model = CompiledSnapshot::Compile(BuildEquiDepth(data, 16));
  const SelectivityEstimator est(model);
  // A <= h equals 0 <= A <= h when the domain is non-negative.
  for (const std::int64_t h : {0, 50, 123, 199}) {
    EXPECT_NEAR(est.CardinalityAtMost(h), est.CardinalityRange(0, h), 1e-9);
  }
  // Complementarity.
  EXPECT_NEAR(est.CardinalityAtMost(99) + est.CardinalityAtLeast(100),
              model.TotalCount(), 1e-9);
}

TEST(SelectivityTest, KsBoundsRangeSelectivityError) {
  // §6.2: the KS statistic is the maximum error of a (one-sided) range
  // selectivity. Verify the bound holds for open ranges on a real pair.
  Rng rng(2);
  FrequencyVector data(500);
  for (int i = 0; i < 5'000; ++i) {
    data.Insert(rng.Bernoulli(0.4) ? rng.UniformInt(0, 24)
                                   : rng.UniformInt(0, 499));
  }
  const auto model = BuildEquiDepth(data, 10);
  const CompiledSnapshot compiled = CompiledSnapshot::Compile(model);
  const SelectivityEstimator est(compiled);
  // Max open-range selectivity error over integer endpoints...
  double max_open_error = 0.0;
  for (std::int64_t h = 0; h < 500; ++h) {
    const double truth_sel =
        static_cast<double>(data.CumulativeCount(h)) /
        static_cast<double>(data.TotalCount());
    max_open_error = std::max(
        max_open_error, std::fabs(est.SelectivityAtMost(h) - truth_sel));
  }
  // ...is bounded by the KS statistic, which takes the supremum over all
  // real x (a superset of the integer endpoints).
  const double ks = KsStatistic(data, model);
  EXPECT_LE(max_open_error, ks + 1e-9);
  EXPECT_GT(max_open_error, 0.0);  // a 10-bucket summary cannot be exact
}

}  // namespace
}  // namespace dynhist
