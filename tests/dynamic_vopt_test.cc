#include "src/histogram/dynamic_vopt.h"

#include <gtest/gtest.h>

#include "src/data/cluster_generator.h"
#include "src/data/update_stream.h"
#include "src/histogram/compiled_snapshot.h"
#include "src/histogram/driver.h"
#include "src/metrics/ks.h"
#include "tests/test_util.h"

namespace dynhist {
namespace {

DynamicVOptConfig Dado(std::int64_t buckets) {
  DynamicVOptConfig config;
  config.buckets = buckets;
  config.policy = DeviationPolicy::kAbsolute;
  return config;
}

DynamicVOptConfig Dvo(std::int64_t buckets) {
  DynamicVOptConfig config;
  config.buckets = buckets;
  config.policy = DeviationPolicy::kSquared;
  return config;
}

TEST(DynamicVOptTest, NamesFollowPolicy) {
  EXPECT_EQ(DynamicVOptHistogram(Dado(4)).Name(), "DADO");
  EXPECT_EQ(DynamicVOptHistogram(Dvo(4)).Name(), "DVO");
}

TEST(DynamicVOptTest, LoadingPhaseIsExact) {
  DynamicVOptHistogram h(Dado(8));
  FrequencyVector truth(100);
  for (const std::int64_t v : {5, 5, 20, 31, 31}) {
    h.Insert(v);
    truth.Insert(v);
  }
  EXPECT_TRUE(h.InLoadingPhase());
  EXPECT_NEAR(KsStatistic(truth, h.Model()), 0.0, 1e-12);
}

TEST(DynamicVOptTest, BucketCountStableAfterLoading) {
  DynamicVOptHistogram h(Dado(8));
  Rng rng(1);
  for (int i = 0; i < 2'000; ++i) h.Insert(rng.UniformInt(0, 499));
  EXPECT_FALSE(h.InLoadingPhase());
  EXPECT_EQ(h.BucketCount(), 8u);
}

TEST(DynamicVOptTest, TotalCountConservedBySplitMerge) {
  DynamicVOptHistogram h(Dado(8));
  Rng rng(2);
  double inserted = 0.0;
  for (int i = 0; i < 5'000; ++i) {
    h.Insert(rng.Bernoulli(0.7) ? rng.UniformInt(0, 50)
                                : rng.UniformInt(0, 499));
    inserted += 1.0;
    ASSERT_NEAR(h.TotalCount(), inserted, 1e-6);
  }
  EXPECT_NEAR(h.Model().TotalCount(), inserted, 1e-6);
  EXPECT_GT(h.RepartitionCount(), 0);
}

TEST(DynamicVOptTest, ModelStaysStructurallyValid) {
  DynamicVOptHistogram h(Dado(12));
  Rng rng(3);
  for (int i = 0; i < 3'000; ++i) {
    h.Insert(rng.UniformInt(0, 999));
    if (i % 97 == 0) {
      EXPECT_TRUE(testing::ModelIsValid(h.Model()));
    }
  }
}

TEST(DynamicVOptTest, OutOfRangeInsertBorrowsAndMerges) {
  DynamicVOptHistogram h(Dado(4));
  for (const std::int64_t v : {100, 110, 120, 130}) h.Insert(v);
  EXPECT_EQ(h.BucketCount(), 4u);
  h.Insert(500);  // beyond the right edge
  EXPECT_EQ(h.BucketCount(), 4u);  // borrowed bucket paid back by a merge
  h.Insert(3);    // below the left edge
  EXPECT_EQ(h.BucketCount(), 4u);
  const auto model = h.Model();
  EXPECT_DOUBLE_EQ(model.MinBorder(), 3.0);
  EXPECT_DOUBLE_EQ(model.MaxBorder(), 501.0);
  EXPECT_DOUBLE_EQ(h.TotalCount(), 6.0);
}

TEST(DynamicVOptTest, SplitTargetsHighestRho) {
  // Theorem 4.1: after a repartition the former max-rho bucket has been
  // split (its rho drops to ~0). Drive one bucket's sub-counters far apart
  // and verify a reorganization happens.
  DynamicVOptHistogram h(Dado(6));
  for (const std::int64_t v : {0, 100, 200, 300, 400, 500}) h.Insert(v);
  const auto before = h.RepartitionCount();
  // All inserts land in the left half of bucket [100, 200).
  for (int i = 0; i < 200; ++i) h.Insert(101 + (i % 10));
  EXPECT_GT(h.RepartitionCount(), before);
  // The hot region should now be covered by narrower buckets: the model
  // must place a border inside [100, 200).
  bool border_inside = false;
  const HistogramModel model = h.Model();
  for (const auto& piece : model.pieces()) {
    if (piece.left > 100.0 && piece.left < 200.0) border_inside = true;
  }
  EXPECT_TRUE(border_inside);
}

TEST(DynamicVOptTest, RhoOfFreshSplitIsZero) {
  DynamicVOptHistogram h(Dado(6));
  Rng rng(5);
  for (int i = 0; i < 1'000; ++i) h.Insert(rng.UniformInt(0, 299));
  // Rho values are cached; every bucket's cached value must equal a fresh
  // computation and be non-negative.
  for (std::size_t i = 0; i < h.BucketCount(); ++i) {
    EXPECT_GE(h.BucketRhoForTest(i), 0.0);
  }
}

TEST(DynamicVOptTest, CapturesSpikeWithNarrowBucket) {
  // §7.1: DADO "can afford to create buckets with only one value in them".
  DynamicVOptHistogram h(Dado(8));
  Rng rng(6);
  for (int i = 0; i < 8'000; ++i) {
    h.Insert(rng.Bernoulli(0.5) ? 250 : rng.UniformInt(0, 499));
  }
  FrequencyVector truth(500);
  // Rebuild the truth for the estimate check.
  Rng rng2(6);
  for (int i = 0; i < 8'000; ++i) {
    truth.Insert(rng2.Bernoulli(0.5) ? 250 : rng2.UniformInt(0, 499));
  }
  const double est = CompiledSnapshot::Compile(h.Model()).EstimatePoint(250);
  EXPECT_NEAR(est / h.TotalCount(), 0.5, 0.1);
}

TEST(DynamicVOptTest, DeleteDecrementsNearestCounter) {
  DynamicVOptHistogram h(Dado(4));
  for (const std::int64_t v : {10, 20, 30, 40}) h.Insert(v);
  h.Delete(10, 1);
  EXPECT_DOUBLE_EQ(h.TotalCount(), 3.0);
  // Delete a value whose bucket is now empty: spills to the closest bucket.
  h.Delete(11, 0);
  EXPECT_DOUBLE_EQ(h.TotalCount(), 2.0);
  EXPECT_GE(h.Model().TotalCount(), 0.0);
}

TEST(DynamicVOptTest, InsertDeleteRoundTripKeepsTotalsExact) {
  DynamicVOptHistogram h(Dado(8));
  FrequencyVector truth(200);
  Rng rng(7);
  UpdateStream stream = MakeMixedStream(
      GenerateClusterData({.num_points = 2'000,
                           .domain_size = 200,
                           .num_clusters = 20,
                           .seed = 8}),
      0.25, rng);
  Replay(stream, &h, &truth);
  EXPECT_NEAR(h.TotalCount(), static_cast<double>(truth.TotalCount()), 1e-6);
}

TEST(DynamicVOptTest, DadoBeatsDvoOnSkewedStream) {
  // §4.1 / Fig. 5-8: DADO is consistently at least as good as DVO. On a
  // single seed allow a margin, but DADO must not be drastically worse.
  ClusterDataConfig config;
  config.num_points = 40'000;
  config.domain_size = 2'001;
  config.num_clusters = 200;
  config.size_skew_z = 2.0;
  config.seed = 9;
  Rng rng(10);
  const auto stream =
      MakeRandomInsertStream(GenerateClusterData(config), rng);

  DynamicVOptHistogram dado(Dado(32));
  DynamicVOptHistogram dvo(Dvo(32));
  FrequencyVector truth1(config.domain_size), truth2(config.domain_size);
  Replay(stream, &dado, &truth1);
  Replay(stream, &dvo, &truth2);
  const double ks_dado = KsStatistic(truth1, dado.Model());
  const double ks_dvo = KsStatistic(truth2, dvo.Model());
  EXPECT_LT(ks_dado, ks_dvo + 0.02);
}

class SubBucketAblationTest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(SubBuckets, SubBucketAblationTest,
                         ::testing::Values(2, 3, 4));

TEST_P(SubBucketAblationTest, AllSubBucketCountsWork) {
  DynamicVOptConfig config = Dado(10);
  config.sub_buckets = GetParam();
  DynamicVOptHistogram h(config);
  FrequencyVector truth(500);
  Rng rng(11);
  for (int i = 0; i < 4'000; ++i) {
    const auto v = rng.UniformInt(0, 499);
    h.Insert(v);
    truth.Insert(v);
  }
  EXPECT_NEAR(h.TotalCount(), 4'000.0, 1e-6);
  EXPECT_TRUE(testing::ModelIsValid(h.Model()));
  EXPECT_LT(KsStatistic(truth, h.Model()), 0.2);
}

TEST(DynamicVOptTest, TracksEvolvingDistribution) {
  ClusterDataConfig config;
  config.num_points = 30'000;
  config.domain_size = 1'001;
  config.num_clusters = 100;
  config.seed = 12;
  Rng rng(13);
  const auto stream =
      MakeRandomInsertStream(GenerateClusterData(config), rng);
  DynamicVOptHistogram h(Dado(43));  // ~0.5 KB
  FrequencyVector truth(config.domain_size);
  Replay(stream, &h, &truth);
  EXPECT_LT(KsStatistic(truth, h.Model()), 0.05);
}

TEST(DynamicVOptTest, WeightedInsertsConserveMassAndQuality) {
  Rng rng(17);
  DynamicVOptHistogram h(Dado(32));
  FrequencyVector truth(501);
  for (int i = 0; i < 3'000; ++i) {
    const std::int64_t v = rng.UniformInt(0, 500);
    const auto count = static_cast<std::int64_t>(1 + rng.UniformInt(6));
    h.InsertN(v, count);
    for (std::int64_t c = 0; c < count; ++c) truth.Insert(v);
  }
  EXPECT_DOUBLE_EQ(h.TotalCount(),
                   static_cast<double>(truth.TotalCount()));
  EXPECT_TRUE(testing::ModelIsValid(h.Model()));
  EXPECT_LT(KsStatistic(truth, h.Model()), 0.1);
}

TEST(DynamicVOptTest, WeightedInsertOutOfRangeGrowsSupport) {
  DynamicVOptHistogram h(Dado(8));
  for (int v = 0; v < 8; ++v) h.Insert(v * 10);
  h.InsertN(500, 25);  // far right of the current support
  h.InsertN(-40, 10);  // far left
  EXPECT_DOUBLE_EQ(h.TotalCount(), 8.0 + 25.0 + 10.0);
  const HistogramModel model = h.Model();
  EXPECT_LE(model.MinBorder(), -40.0);
  EXPECT_GE(model.MaxBorder(), 501.0);
  EXPECT_TRUE(testing::ModelIsValid(model));
}

TEST(DynamicVOptTest, WeightedDeletesFastPathAndSpill) {
  DynamicVOptHistogram h(Dado(8));
  for (int v = 0; v < 8; ++v) h.Insert(v * 10);
  h.InsertN(35, 40);
  // Fast path: the value's own counter holds the whole group.
  h.DeleteN(35, 30);
  EXPECT_DOUBLE_EQ(h.TotalCount(), 8.0 + 10.0);
  // Spill: more deletes of 35 than its counter holds must drain neighbors
  // point by point. Once every counter is below one point, each delete
  // clamps to the largest fractional counter (pre-existing §7.3 semantics),
  // so the final mass may exceed the exact 3.0 by those fractions but never
  // undershoots it.
  h.DeleteN(35, 15);
  EXPECT_GE(h.TotalCount(), 3.0);
  EXPECT_LE(h.TotalCount(), 5.0);
  EXPECT_TRUE(testing::ModelIsValid(h.Model()));
}

TEST(DynamicVOptDeathTest, RejectsBadConfig) {
  DynamicVOptConfig config;
  config.buckets = 1;
  EXPECT_DEATH(DynamicVOptHistogram{config}, "DH_CHECK");
  config.buckets = 8;
  config.sub_buckets = 5;
  EXPECT_DEATH(DynamicVOptHistogram{config}, "DH_CHECK");
}

}  // namespace
}  // namespace dynhist
