// Cross-module integration tests: whole update streams through every
// histogram implementation, checked against the paper's qualitative claims
// at reduced scale (the full-scale sweeps live in bench/).

#include <gtest/gtest.h>

#include "src/dynhist.h"
#include "tests/test_util.h"

namespace dynhist {
namespace {

constexpr std::int64_t kDomain = 2'001;

ClusterDataConfig MediumData(std::uint64_t seed) {
  ClusterDataConfig config;
  config.num_points = 30'000;
  config.domain_size = kDomain;
  config.num_clusters = 200;
  config.seed = seed;
  return config;
}

struct Outcome {
  double ks = 0.0;
  double total = 0.0;
};

Outcome RunStream(Histogram* h, const UpdateStream& stream) {
  FrequencyVector truth(kDomain);
  Replay(stream, h, &truth);
  return {KsStatistic(truth, h->Model()), h->TotalCount()};
}

TEST(IntegrationTest, AllDynamicHistogramsSurviveAllStreamShapes) {
  const auto values = GenerateClusterData(MediumData(1));
  Rng rng(2);
  const std::vector<UpdateStream> streams = {
      MakeRandomInsertStream(values, rng),
      MakeSortedInsertStream(values),
      MakeMixedStream(values, 0.25, rng),
      MakeInsertsThenRandomDeletes(values, 0.5, rng),
      MakeSortedInsertsThenSortedDeletes(values, 0.5),
  };
  for (std::size_t s = 0; s < streams.size(); ++s) {
    DynamicCompressedHistogram dc({.buckets = 64});
    DynamicVOptHistogram dado(
        {.buckets = 43, .policy = DeviationPolicy::kAbsolute});
    DynamicVOptHistogram dvo(
        {.buckets = 43, .policy = DeviationPolicy::kSquared});
    ApproximateCompressedHistogram ac(
        MakeApproximateCompressedConfig(512.0, 20.0, 3));
    Birch1DHistogram birch({.max_clusters = 42});
    for (Histogram* h : std::initializer_list<Histogram*>{
             &dc, &dado, &dvo, &ac, &birch}) {
      const Outcome out = RunStream(h, streams[s]);
      EXPECT_GE(out.ks, 0.0) << h->Name() << " stream " << s;
      EXPECT_LE(out.ks, 1.0) << h->Name() << " stream " << s;
      EXPECT_TRUE(testing::ModelIsValid(h->Model()))
          << h->Name() << " stream " << s;
    }
  }
}

TEST(IntegrationTest, DynamicTotalsMatchTruthUnderMixedUpdates) {
  const auto values = GenerateClusterData(MediumData(4));
  Rng rng(5);
  const auto stream = MakeMixedStream(values, 0.25, rng);
  FrequencyVector truth_ref(kDomain);
  for (const UpdateOp& op : stream) {
    if (op.kind == UpdateOp::Kind::kInsert) {
      truth_ref.Insert(op.value);
    } else {
      truth_ref.Delete(op.value);
    }
  }
  DynamicVOptHistogram dado(
      {.buckets = 64, .policy = DeviationPolicy::kAbsolute});
  const Outcome out = RunStream(&dado, stream);
  EXPECT_NEAR(out.total, static_cast<double>(truth_ref.TotalCount()), 1e-6);
}

TEST(IntegrationTest, DadoApproachesStaticQuality) {
  // §7.1 / Figs. 9-12: "the DADO algorithm comes close to the performance
  // of its static counterpart." Allow a generous dynamic-overhead factor.
  const auto values = GenerateClusterData(MediumData(6));
  Rng rng(7);
  const auto stream = MakeRandomInsertStream(values, rng);
  DynamicVOptHistogram dado(
      {.buckets = 43, .policy = DeviationPolicy::kAbsolute});
  FrequencyVector truth(kDomain);
  Replay(stream, &dado, &truth);
  const double ks_dado = KsStatistic(truth, dado.Model());
  const double ks_static = KsStatistic(truth, BuildSado(truth, 43));
  EXPECT_LT(ks_dado, 5.0 * ks_static + 0.02);
}

TEST(IntegrationTest, DadoBeatsAcOnRandomInsertions) {
  // The paper's headline comparison (Figs. 5-8): DADO < AC in KS error at
  // equal memory, even with AC's 20x disk sample. One seed, medium scale.
  const double memory = 512.0;
  const auto values = GenerateClusterData(MediumData(8));
  Rng rng(9);
  const auto stream = MakeRandomInsertStream(values, rng);

  DynamicVOptHistogram dado(
      {.buckets = BucketBudget(memory, BucketLayout::kBorderTwoCounts),
       .policy = DeviationPolicy::kAbsolute});
  ApproximateCompressedHistogram ac(
      MakeApproximateCompressedConfig(memory, 20.0, 10));
  FrequencyVector t1(kDomain), t2(kDomain);
  Replay(stream, &dado, &t1);
  Replay(stream, &ac, &t2);
  EXPECT_LT(KsStatistic(t1, dado.Model()),
            KsStatistic(t2, ac.Model()) + 0.01);
}

TEST(IntegrationTest, MemoryImprovesAccuracy) {
  // Fig. 8: error falls as memory grows.
  const auto values = GenerateClusterData(MediumData(11));
  Rng rng(12);
  const auto stream = MakeRandomInsertStream(values, rng);
  double prev = 1.0;
  for (const double memory : {128.0, 512.0, 2'048.0}) {
    DynamicVOptHistogram dado(
        {.buckets = BucketBudget(memory, BucketLayout::kBorderTwoCounts),
         .policy = DeviationPolicy::kAbsolute});
    FrequencyVector truth(kDomain);
    Replay(stream, &dado, &truth);
    const double ks = KsStatistic(truth, dado.Model());
    EXPECT_LT(ks, prev + 0.01) << "memory " << memory;
    prev = ks;
  }
  EXPECT_LT(prev, 0.03);  // 2 KB on 30k points is quite accurate
}

TEST(IntegrationTest, SelectivityEstimatesTrackTruth) {
  // End-to-end API flow: stream -> histogram -> optimizer estimate.
  const auto values = GenerateClusterData(MediumData(13));
  Rng rng(14);
  const auto stream = MakeRandomInsertStream(values, rng);
  DynamicVOptHistogram dado(
      {.buckets = 85, .policy = DeviationPolicy::kAbsolute});
  FrequencyVector truth(kDomain);
  Replay(stream, &dado, &truth);
  const auto model = CompiledSnapshot::Compile(dado.Model());
  const SelectivityEstimator est(model);
  Rng qrng(15);
  const auto queries = MakeUniformQueries(kDomain, 200, qrng);
  for (const RangeQuery& q : queries) {
    const double actual = static_cast<double>(truth.RangeCount(q.lo, q.hi)) /
                          static_cast<double>(truth.TotalCount());
    const double estimate = est.SelectivityRange(q.lo, q.hi);
    // Range selectivity error is bounded by ~2x the KS statistic.
    EXPECT_NEAR(estimate, actual, 0.05) << "[" << q.lo << "," << q.hi << "]";
  }
}

TEST(IntegrationTest, MailOrderEndToEnd) {
  // §7.4 at full scale: all three dynamic histograms absorb the trace.
  const auto records = MakeMailOrderData(1);
  Rng rng(16);
  const auto stream = MakeRandomInsertStream(records, rng);
  FrequencyVector truth(kMailOrderDomainSize);
  DynamicVOptHistogram dado(
      {.buckets = 85, .policy = DeviationPolicy::kAbsolute});
  Replay(stream, &dado, &truth);
  EXPECT_LT(KsStatistic(truth, dado.Model()), 0.05);
}

}  // namespace
}  // namespace dynhist
