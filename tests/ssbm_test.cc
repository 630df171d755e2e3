#include "src/histogram/ssbm.h"

#include "src/common/rng.h"

#include <gtest/gtest.h>

#include "src/data/cluster_generator.h"
#include "src/histogram/static_voptimal.h"
#include "src/metrics/ks.h"
#include "tests/test_util.h"

namespace dynhist {
namespace {

TEST(SsbmTest, EmptyInput) {
  EXPECT_TRUE(BuildSsbm(std::vector<ValueFreq>{}, 5).Empty());
}

TEST(SsbmTest, ExactWhenBudgetCoversDistinct) {
  const FrequencyVector data = testing::MakeData(50, {1, 9, 9, 40});
  const auto model = BuildSsbm(data, 8);
  EXPECT_NEAR(KsStatistic(data, model), 0.0, 1e-12);
}

TEST(SsbmTest, ProducesRequestedBucketCount) {
  Rng rng(1);
  FrequencyVector data(300);
  for (int i = 0; i < 3'000; ++i) data.Insert(rng.UniformInt(0, 299));
  for (const std::int64_t buckets : {1, 2, 7, 31}) {
    const auto model = BuildSsbm(data, buckets);
    EXPECT_EQ(model.NumBuckets(), static_cast<std::size_t>(buckets));
    EXPECT_NEAR(model.TotalCount(), 3'000.0, 1e-6);
    EXPECT_TRUE(testing::ModelIsValid(model));
  }
}

TEST(SsbmTest, MergesTheMostSimilarBucketsFirst) {
  // Two plateaus: every merge inside a plateau has rho ~ 0, so the surviving
  // border must separate the plateaus.
  std::vector<ValueFreq> entries;
  for (std::int64_t v = 0; v < 8; ++v) entries.push_back({v, 5.0});
  for (std::int64_t v = 8; v < 16; ++v) entries.push_back({v, 500.0});
  const auto model = BuildSsbm(entries, 2);
  ASSERT_EQ(model.NumBuckets(), 2u);
  EXPECT_DOUBLE_EQ(model.BucketPieces(1).front().left, 8.0);
}

TEST(SsbmTest, ComparableToVOptimalOnClusteredData) {
  // §5 / Figs. 9-12: SSBM quality ~ SVO quality. Allow a modest margin.
  ClusterDataConfig config;
  config.num_points = 20'000;
  config.domain_size = 1'001;
  config.num_clusters = 50;
  config.stddev_sd = 1.0;
  config.seed = 13;
  const FrequencyVector data(config.domain_size,
                             GenerateClusterData(config));
  const double svo = KsStatistic(data, BuildVOptimal(data, 17));
  const double ssbm = KsStatistic(data, BuildSsbm(data, 17));
  EXPECT_LT(ssbm, std::max(2.0 * svo, svo + 0.02));
}

TEST(SsbmTest, MergeKeyAblationBothWork) {
  Rng rng(3);
  FrequencyVector data(500);
  for (int i = 0; i < 5'000; ++i) {
    data.Insert(rng.Bernoulli(0.4) ? rng.UniformInt(100, 120)
                                   : rng.UniformInt(0, 499));
  }
  SsbmOptions merged_key;
  SsbmOptions delta_key;
  delta_key.merge_key = SsbmOptions::MergeKey::kDeviationIncrease;
  const double ks_merged = KsStatistic(data, BuildSsbm(data, 15, merged_key));
  const double ks_delta = KsStatistic(data, BuildSsbm(data, 15, delta_key));
  EXPECT_LT(ks_merged, 0.2);
  EXPECT_LT(ks_delta, 0.2);
}

TEST(SsbmTest, AbsolutePolicyWorks) {
  Rng rng(4);
  FrequencyVector data(400);
  for (int i = 0; i < 4'000; ++i) data.Insert(rng.UniformInt(0, 399));
  SsbmOptions options;
  options.policy = DeviationPolicy::kAbsolute;
  const auto model = BuildSsbm(data, 12, options);
  EXPECT_EQ(model.NumBuckets(), 12u);
  EXPECT_LT(KsStatistic(data, model), 0.1);
}

TEST(SsbmTest, SingleEntryStaysSingular) {
  FrequencyVector data(100);
  for (int i = 0; i < 50; ++i) data.Insert(42);
  const auto model = BuildSsbm(data, 3);
  ASSERT_EQ(model.NumBuckets(), 1u);
  EXPECT_TRUE(model.buckets()[0].singular);
  EXPECT_NEAR(KsStatistic(data, model), 0.0, 1e-12);
}

TEST(SsbmTest, QuadraticScanMatchesHeap) {
  // The O(D^2) paper-style selection and the lazy heap run the same merge
  // sequence, hence identical histograms.
  Rng rng(6);
  std::vector<ValueFreq> entries;
  std::int64_t v = 0;
  for (int i = 0; i < 150; ++i) {
    v += 1 + static_cast<std::int64_t>(rng.UniformInt(4));
    entries.push_back({v, 1.0 + rng.UniformDouble() * 50.0});
  }
  SsbmOptions heap_options;
  SsbmOptions scan_options;
  scan_options.use_quadratic_scan = true;
  const auto heap_model = BuildSsbm(entries, 12, heap_options);
  const auto scan_model = BuildSsbm(entries, 12, scan_options);
  EXPECT_EQ(heap_model.pieces(), scan_model.pieces());
  EXPECT_EQ(heap_model.buckets(), scan_model.buckets());
}

TEST(SsbmTest, HeapAndScanAgreeExactlyOnTies) {
  // Equal merge keys break to the leftmost pair under both selections, so
  // inputs full of ties still give identical histograms.
  const auto frequency = [](int shape, std::int64_t i) {
    switch (shape) {
      case 0: return 7.0;                       // equal
      case 1: return i % 2 == 0 ? 1.0 : 3.0;    // alternating 1/3
      default: return i % 5 == 0 ? 40.0 : 2.0;  // period-5 spikes
    }
  };
  for (const int shape : {0, 1, 2}) {
    for (const std::int64_t n : {10, 17, 64, 100, 257}) {
      std::vector<ValueFreq> entries;
      std::int64_t v = 0;
      for (std::int64_t i = 0; i < n; ++i) {
        v += (i % 7 == 3) ? 3 : 1;  // gaps of 2 empty values
        entries.push_back({v, frequency(shape, i)});
      }
      for (const std::int64_t buckets : {1, 2, 3, 5, 8, 16}) {
        for (const auto policy :
             {DeviationPolicy::kSquared, DeviationPolicy::kAbsolute}) {
          for (const auto key : {SsbmOptions::MergeKey::kMergedDeviation,
                                 SsbmOptions::MergeKey::kDeviationIncrease}) {
            SsbmOptions heap_options;
            heap_options.policy = policy;
            heap_options.merge_key = key;
            SsbmOptions scan_options = heap_options;
            scan_options.use_quadratic_scan = true;
            const auto heap_model = BuildSsbm(entries, buckets, heap_options);
            const auto scan_model = BuildSsbm(entries, buckets, scan_options);
            SCOPED_TRACE(::testing::Message()
                         << "shape " << shape << " n " << n << " buckets "
                         << buckets << " policy " << static_cast<int>(policy)
                         << " key " << static_cast<int>(key));
            EXPECT_EQ(heap_model.pieces(), scan_model.pieces());
            EXPECT_EQ(heap_model.buckets(), scan_model.buckets());
          }
        }
      }
    }
  }
}

TEST(SsbmTest, HeapAndScanAgreeExactlyOnRandomSlices) {
  // Seeded random slice inputs: unit or wide slices with gaps, and
  // fractional, small-integer or tie-heavy counts. kDeviationIncrease keys
  // can fall when a bucket grows, so the heap's sift-up path runs too.
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    const bool wide = seed % 2 == 0;
    const std::uint64_t counts = seed % 3;  // 0 fractional, 1 small, 2 ties
    const auto n = static_cast<std::size_t>(2 + rng.UniformInt(150));
    std::vector<HistogramModel::Piece> slices;
    double x = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.25)) x += static_cast<double>(1 + rng.UniformInt(3));
      const double width =
          wide ? static_cast<double>(1 + rng.UniformInt(4)) +
                     (rng.Bernoulli(0.3) ? 0.5 : 0.0)
               : 1.0;
      const double count =
          counts == 0   ? rng.UniformDouble(0.0, 50.0)
          : counts == 1 ? static_cast<double>(rng.UniformInt(5))
                        : (rng.Bernoulli(0.8) ? 6.0 : 2.0);
      slices.push_back({x, x + width, count});
      x += width;
    }
    for (const std::int64_t buckets :
         {std::int64_t{1}, std::int64_t{2}, std::int64_t{5}, std::int64_t{16},
          static_cast<std::int64_t>(n) - 1}) {
      if (buckets < 1) continue;
      for (const auto policy :
           {DeviationPolicy::kSquared, DeviationPolicy::kAbsolute}) {
        for (const auto key : {SsbmOptions::MergeKey::kMergedDeviation,
                               SsbmOptions::MergeKey::kDeviationIncrease}) {
          SsbmOptions heap_options;
          heap_options.policy = policy;
          heap_options.merge_key = key;
          SsbmOptions scan_options = heap_options;
          scan_options.use_quadratic_scan = true;
          const auto heap_model = BuildSsbm(slices, buckets, heap_options);
          const auto scan_model = BuildSsbm(slices, buckets, scan_options);
          SCOPED_TRACE(::testing::Message()
                       << "seed " << seed << " n " << n << " buckets "
                       << buckets << " policy " << static_cast<int>(policy)
                       << " key " << static_cast<int>(key));
          ASSERT_EQ(heap_model.NumBuckets(),
                    std::min(n, static_cast<std::size_t>(buckets)));
          EXPECT_EQ(heap_model.pieces(), scan_model.pieces());
          EXPECT_EQ(heap_model.buckets(), scan_model.buckets());
        }
      }
    }
  }
}

TEST(SsbmTest, TotalMassInvariantUnderMerging) {
  Rng rng(5);
  std::vector<ValueFreq> entries;
  std::int64_t v = 0;
  for (int i = 0; i < 200; ++i) {
    v += 1 + static_cast<std::int64_t>(rng.UniformInt(5));
    entries.push_back({v, static_cast<double>(1 + rng.UniformInt(30))});
  }
  double total = 0.0;
  for (const auto& e : entries) total += e.freq;
  for (const std::int64_t buckets : {1, 3, 50, 150}) {
    EXPECT_NEAR(BuildSsbm(entries, buckets).TotalCount(), total, 1e-6);
  }
}

}  // namespace
}  // namespace dynhist
