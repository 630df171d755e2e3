#include "src/distributed/global_histogram.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "src/distributed/frame.h"
#include "src/distributed/site.h"
#include "src/distributed/site_shipper.h"
#include "src/engine/histogram_engine.h"
#include "src/histogram/budget.h"
#include "src/histogram/ssbm.h"
#include "src/metrics/ks.h"
#include "tests/test_util.h"

namespace dynhist::distributed {
namespace {

UnionWorkloadConfig SmallWorkload() {
  UnionWorkloadConfig config;
  config.domain_size = 1'001;
  config.total_points = 20'000;
  config.num_sites = 5;
  config.seed = 3;
  return config;
}

TEST(UnionWorkloadTest, SiteSizesSumToTotal) {
  const auto sites = GenerateUnionWorkload(SmallWorkload());
  ASSERT_EQ(sites.size(), 5u);
  std::int64_t total = 0;
  for (const Site& s : sites) total += s.data().TotalCount();
  EXPECT_EQ(total, 20'000);
}

TEST(UnionWorkloadTest, SiteSkewConcentratesData) {
  auto config = SmallWorkload();
  config.zipf_site = 3.0;
  const auto sites = GenerateUnionWorkload(config);
  std::int64_t max_site = 0;
  for (const Site& s : sites) {
    max_site = std::max(max_site, s.data().TotalCount());
  }
  EXPECT_GT(max_site, 15'000);  // Zipf(3) head share
}

TEST(UnionWorkloadTest, DeterministicInSeed) {
  const auto a = GenerateUnionWorkload(SmallWorkload());
  const auto b = GenerateUnionWorkload(SmallWorkload());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].data().counts(), b[i].data().counts());
  }
}

TEST(SuperimposeTest, TwoDisjointModels) {
  const auto a = HistogramModel::FromSimpleBuckets({{0, 10, 5.0}});
  const auto b = HistogramModel::FromSimpleBuckets({{20, 30, 7.0}});
  const auto u = Superimpose({a, b});
  EXPECT_DOUBLE_EQ(u.TotalCount(), 12.0);
  EXPECT_DOUBLE_EQ(u.MassInRealRange(0, 10), 5.0);
  EXPECT_DOUBLE_EQ(u.MassInRealRange(10, 20), 0.0);
  EXPECT_DOUBLE_EQ(u.MassInRealRange(20, 30), 7.0);
}

TEST(SuperimposeTest, OverlappingModelsAddDensities) {
  const auto a = HistogramModel::FromSimpleBuckets({{0, 10, 10.0}});
  const auto b = HistogramModel::FromSimpleBuckets({{5, 15, 10.0}});
  const auto u = Superimpose({a, b});
  EXPECT_DOUBLE_EQ(u.TotalCount(), 20.0);
  EXPECT_DOUBLE_EQ(u.MassInRealRange(0, 5), 5.0);
  EXPECT_DOUBLE_EQ(u.MassInRealRange(5, 10), 10.0);  // both contribute
  EXPECT_DOUBLE_EQ(u.MassInRealRange(10, 15), 5.0);
}

TEST(SuperimposeTest, IsLossless) {
  // §8: "this process does not involve any loss of information" — the
  // superposition's CDF equals the sum of the member CDFs everywhere.
  const auto sites = GenerateUnionWorkload(SmallWorkload());
  std::vector<HistogramModel> locals;
  for (const Site& s : sites) locals.push_back(s.BuildLocalHistogram(250.0));
  const auto u = Superimpose(locals);
  for (double x = 0.0; x <= 1'001.0; x += 13.7) {
    double sum = 0.0;
    for (const auto& m : locals) sum += m.CdfMass(x);
    EXPECT_NEAR(u.CdfMass(x), sum, 1e-6);
  }
}

TEST(ReduceTest, PreservesTotalMass) {
  const auto sites = GenerateUnionWorkload(SmallWorkload());
  std::vector<HistogramModel> locals;
  for (const Site& s : sites) locals.push_back(s.BuildLocalHistogram(250.0));
  const auto u = Superimpose(locals);
  const auto reduced = ReduceWithSsbm(u, 15);
  EXPECT_NEAR(reduced.TotalCount(), u.TotalCount(), 1.0);
  EXPECT_LE(reduced.NumBuckets(), 15u);
}

TEST(GlobalHistogramTest, BothStrategiesApproximateTheUnion) {
  const auto sites = GenerateUnionWorkload(SmallWorkload());
  const FrequencyVector all = UnionData(sites);
  const auto h_union = BuildGlobalHistogram(
      sites, GlobalStrategy::kHistogramThenUnion, 250.0);
  const auto u_histogram = BuildGlobalHistogram(
      sites, GlobalStrategy::kUnionThenHistogram, 250.0);
  const double ks_hu = KsStatistic(all, h_union);
  const double ks_uh = KsStatistic(all, u_histogram);
  EXPECT_LT(ks_hu, 0.15);
  EXPECT_LT(ks_uh, 0.15);
  // §8 conclusion: the two alternatives are of comparable quality.
  EXPECT_NEAR(ks_hu, ks_uh, 0.05);
}

TEST(GlobalHistogramTest, RespectsMemoryBudget) {
  const auto sites = GenerateUnionWorkload(SmallWorkload());
  for (const double memory : {100.0, 250.0, 1'000.0}) {
    const auto model = BuildGlobalHistogram(
        sites, GlobalStrategy::kHistogramThenUnion, memory);
    const auto budget = BucketBudget(memory, BucketLayout::kBorderCount);
    EXPECT_LE(model.NumBuckets(), static_cast<std::size_t>(budget));
  }
}

TEST(GlobalHistogramTest, SingleSiteDegeneratesGracefully) {
  auto config = SmallWorkload();
  config.num_sites = 1;
  const auto sites = GenerateUnionWorkload(config);
  const auto model = BuildGlobalHistogram(
      sites, GlobalStrategy::kHistogramThenUnion, 250.0);
  const FrequencyVector all = UnionData(sites);
  EXPECT_LT(KsStatistic(all, model), 0.15);
}

TEST(SiteShipperTest, FrameTheSinkRefusesStaysPending) {
  engine::EngineOptions options;
  options.snapshot_every = 0;
  engine::HistogramEngine engine(options);
  engine.Insert("a", 1);
  engine.Insert("b", 2);
  engine.RefreshAll();
  SiteShipper shipper(&engine, /*site_id=*/3);

  // The connection dies on the first frame: nothing counts as shipped.
  EXPECT_EQ(shipper.Ship([](std::string_view) { return false; }), 0u);
  EXPECT_EQ(shipper.frames_shipped(), 0u);
  EXPECT_EQ(shipper.bytes_shipped(), 0u);

  // The next unforced round re-sends the refused key, then the rest.
  std::vector<std::string> keys;
  const SiteShipper::Sink sink = [&](std::string_view frame) {
    DecodedFrame decoded;
    EXPECT_EQ(DecodeFrame(frame, &decoded), FrameError::kOk);
    keys.push_back(decoded.header.key);
    return true;
  };
  EXPECT_EQ(shipper.Ship(sink), 2u);
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(shipper.frames_shipped(), 2u);
  EXPECT_EQ(shipper.Ship(sink), 0u);  // nothing left pending
}

}  // namespace
}  // namespace dynhist::distributed
