// Adversarial stress patterns: update sequences crafted to break histogram
// maintenance invariants — heavy single-value hammering, oscillating
// insert/delete churn, drain-and-refill, saw-tooth order, domain-edge
// traffic. Every pattern runs against every dynamic histogram and checks
// structural validity, count conservation, and bounded error where the
// distribution is simple enough to pin down.

#include <memory>
#include <tuple>

#include <gtest/gtest.h>

#include "src/dynhist.h"
#include "tests/test_util.h"

namespace dynhist {
namespace {

constexpr std::int64_t kDomain = 501;

enum class Algo { kDc, kDado, kAc, kBirch };

std::string AlgoName(Algo algo) {
  switch (algo) {
    case Algo::kDc:
      return "DC";
    case Algo::kDado:
      return "DADO";
    case Algo::kAc:
      return "AC";
    case Algo::kBirch:
      return "Birch";
  }
  return "?";
}

std::unique_ptr<Histogram> Make(Algo algo) {
  switch (algo) {
    case Algo::kDc:
      return std::make_unique<DynamicCompressedHistogram>(
          DynamicCompressedConfig{.buckets = 16});
    case Algo::kDado:
      return std::make_unique<DynamicVOptHistogram>(DynamicVOptConfig{
          .buckets = 16, .policy = DeviationPolicy::kAbsolute});
    case Algo::kAc:
      return std::make_unique<ApproximateCompressedHistogram>(
          ApproximateCompressedConfig{
              .buckets = 16, .sample_capacity = 256, .seed = 1});
    case Algo::kBirch:
      return std::make_unique<Birch1DHistogram>(
          Birch1DConfig{.max_clusters = 16});
  }
  return nullptr;
}

class StressTest : public ::testing::TestWithParam<Algo> {};

INSTANTIATE_TEST_SUITE_P(AllAlgos, StressTest,
                         ::testing::Values(Algo::kDc, Algo::kDado, Algo::kAc,
                                           Algo::kBirch),
                         [](const auto& info) { return AlgoName(info.param); });

void CheckState(const Histogram& h, const FrequencyVector& truth,
                double count_tolerance = 1.0) {
  EXPECT_TRUE(testing::ModelIsValid(h.Model()));
  EXPECT_NEAR(h.TotalCount(), static_cast<double>(truth.TotalCount()),
              count_tolerance +
                  0.01 * static_cast<double>(truth.TotalCount()));
}

TEST_P(StressTest, SingleValueHammer) {
  // 10,000 copies of one value, nothing else.
  auto h = Make(GetParam());
  FrequencyVector truth(kDomain);
  for (int i = 0; i < 10'000; ++i) {
    h->Insert(250);
    truth.Insert(250);
  }
  CheckState(*h, truth);
  // Whatever the bucket structure, the point estimate must see the mass.
  EXPECT_GT(CompiledSnapshot::Compile(h->Model()).EstimateRange(240, 260),
            9'000.0);
}

TEST_P(StressTest, InsertDeleteOscillation) {
  // Insert/delete the same two values forever: totals must not drift.
  auto h = Make(GetParam());
  FrequencyVector truth(kDomain);
  for (int i = 0; i < 200; ++i) {
    h->Insert(100);
    truth.Insert(100);
    h->Insert(400);
    truth.Insert(400);
  }
  for (int round = 0; round < 50; ++round) {
    h->Delete(100, truth.Count(100));
    truth.Delete(100);
    h->Insert(100);
    truth.Insert(100);
  }
  CheckState(*h, truth);
  EXPECT_EQ(truth.TotalCount(), 400);
}

TEST_P(StressTest, DrainAndRefill) {
  // Fill, delete everything, then refill a different region.
  auto h = Make(GetParam());
  FrequencyVector truth(kDomain);
  Rng rng(3);
  std::vector<std::int64_t> live;
  for (int i = 0; i < 2'000; ++i) {
    const std::int64_t v = rng.UniformInt(0, 249);
    h->Insert(v);
    truth.Insert(v);
    live.push_back(v);
  }
  for (const std::int64_t v : live) {
    if (truth.Count(v) > 0) {
      h->Delete(v, truth.Count(v));
      truth.Delete(v);
    }
  }
  EXPECT_EQ(truth.TotalCount(), 0);
  for (int i = 0; i < 2'000; ++i) {
    const std::int64_t v = 250 + rng.UniformInt(0, 249);
    h->Insert(v);
    truth.Insert(v);
  }
  CheckState(*h, truth);
  // The refilled region should hold essentially all estimated mass.
  const auto model = CompiledSnapshot::Compile(h->Model());
  if (model.TotalCount() > 0) {
    EXPECT_GT(model.EstimateRange(250, 500) / model.TotalCount(), 0.5)
        << AlgoName(GetParam());
  }
}

TEST_P(StressTest, SawToothInsertionOrder) {
  // Alternating low/high values stress the out-of-range extension paths.
  auto h = Make(GetParam());
  FrequencyVector truth(kDomain);
  for (int i = 0; i < 2'500; ++i) {
    const std::int64_t v =
        (i % 2 == 0) ? (i / 2) % 250 : 500 - (i / 2) % 250;
    h->Insert(v);
    truth.Insert(v);
  }
  CheckState(*h, truth);
}

TEST_P(StressTest, DomainEdgeTraffic) {
  auto h = Make(GetParam());
  FrequencyVector truth(kDomain);
  for (int i = 0; i < 1'000; ++i) {
    h->Insert(0);
    truth.Insert(0);
    h->Insert(kDomain - 1);
    truth.Insert(kDomain - 1);
  }
  CheckState(*h, truth);
  const auto model = CompiledSnapshot::Compile(h->Model());
  EXPECT_GT(model.EstimateRange(0, 10), 100.0);
  EXPECT_GT(model.EstimateRange(kDomain - 11, kDomain - 1), 100.0);
}

TEST_P(StressTest, AlternatingHotValueMigration) {
  // The hot value teleports across the domain every 500 inserts: dynamic
  // histograms must follow without accumulating stale structure.
  auto h = Make(GetParam());
  FrequencyVector truth(kDomain);
  Rng rng(5);
  for (int phase = 0; phase < 8; ++phase) {
    const std::int64_t hot = (phase * 61) % kDomain;
    for (int i = 0; i < 500; ++i) {
      const std::int64_t v =
          rng.Bernoulli(0.7) ? hot : rng.UniformInt(0, kDomain - 1);
      h->Insert(v);
      truth.Insert(v);
    }
  }
  CheckState(*h, truth);
}

TEST_P(StressTest, ManyTinyEpochsStayValid) {
  // Short random bursts with model exports in between (the optimizer may
  // snapshot at any time).
  auto h = Make(GetParam());
  FrequencyVector truth(kDomain);
  Rng rng(7);
  for (int epoch = 0; epoch < 60; ++epoch) {
    for (int i = 0; i < 40; ++i) {
      const std::int64_t v = rng.UniformInt(0, kDomain - 1);
      h->Insert(v);
      truth.Insert(v);
    }
    const auto model = h->Model();
    EXPECT_TRUE(testing::ModelIsValid(model));
    if (truth.TotalCount() > 0 && model.TotalCount() > 0) {
      const double ks = KsStatistic(truth, model);
      EXPECT_GE(ks, 0.0);
      EXPECT_LE(ks, 1.0);
    }
  }
}

}  // namespace
}  // namespace dynhist
