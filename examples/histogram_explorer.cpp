// Histogram explorer: generate a paper-style synthetic distribution, build
// any histogram over it, and dump "true vs approximated" densities as CSV
// for plotting.
//
// Usage:
//   histogram_explorer [algo] [memory_kb] [S] [Z] [SD] [C] [seed]
// where algo is one of: DC DADO DVO AC Birch (dynamic, fed a random-order
// stream) or SC SVO SADO SSBM ED EW (static, built from the final data).
// Defaults: DADO 1.0 1 1 2 2000 0.
//
// Output: one line per distinct value "value,true_count,estimated_count",
// preceded by '#' comment lines with the run summary — pipe it into your
// plotting tool of choice.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "src/dynhist.h"

int main(int argc, char** argv) {
  using namespace dynhist;

  const std::string algo = argc > 1 ? argv[1] : "DADO";
  const double memory_kb = argc > 2 ? std::atof(argv[2]) : 1.0;
  ClusterDataConfig config;
  config.center_skew_s = argc > 3 ? std::atof(argv[3]) : 1.0;
  config.size_skew_z = argc > 4 ? std::atof(argv[4]) : 1.0;
  config.stddev_sd = argc > 5 ? std::atof(argv[5]) : 2.0;
  config.num_clusters = argc > 6 ? std::atoll(argv[6]) : 2'000;
  config.seed = argc > 7 ? std::strtoull(argv[7], nullptr, 10) : 0;
  const double memory = memory_kb * 1024.0;

  auto values = GenerateClusterData(config);
  FrequencyVector truth(config.domain_size);
  HistogramModel model;

  const bool is_static = algo == "SC" || algo == "SVO" || algo == "SADO" ||
                         algo == "SSBM" || algo == "ED" || algo == "EW";
  if (is_static) {
    for (const auto v : values) truth.Insert(v);
    const std::int64_t buckets =
        BucketBudget(memory, BucketLayout::kBorderCount);
    if (algo == "SC") model = BuildCompressed(truth, buckets);
    if (algo == "SVO") model = BuildVOptimal(truth, buckets);
    if (algo == "SADO") model = BuildSado(truth, buckets);
    if (algo == "SSBM") model = BuildSsbm(truth, buckets);
    if (algo == "ED") model = BuildEquiDepth(truth, buckets);
    if (algo == "EW") model = BuildEquiWidth(truth, buckets);
  } else {
    std::unique_ptr<Histogram> h;
    if (algo == "DC") {
      h = std::make_unique<DynamicCompressedHistogram>(
          DynamicCompressedConfig{
              .buckets = BucketBudget(memory, BucketLayout::kBorderCount)});
    } else if (algo == "DADO" || algo == "DVO") {
      h = std::make_unique<DynamicVOptHistogram>(DynamicVOptConfig{
          .buckets = BucketBudget(memory, BucketLayout::kBorderTwoCounts),
          .policy = algo == "DADO" ? DeviationPolicy::kAbsolute
                                   : DeviationPolicy::kSquared});
    } else if (algo == "AC") {
      h = std::make_unique<ApproximateCompressedHistogram>(
          MakeApproximateCompressedConfig(memory, 20.0, config.seed));
    } else if (algo == "Birch") {
      h = std::make_unique<Birch1DHistogram>(
          Birch1DConfig{.max_clusters = BirchClusterBudget(memory)});
    } else {
      std::fprintf(stderr, "unknown algorithm: %s\n", algo.c_str());
      return 1;
    }
    Rng rng(config.seed + 97);
    const auto stream = MakeRandomInsertStream(std::move(values), rng);
    Replay(stream, h.get(), &truth);
    model = h->Model();
  }

  std::printf("# algo=%s memory=%.2fKB S=%g Z=%g SD=%g C=%lld seed=%llu\n",
              algo.c_str(), memory_kb, config.center_skew_s,
              config.size_skew_z, config.stddev_sd,
              static_cast<long long>(config.num_clusters),
              static_cast<unsigned long long>(config.seed));
  std::printf("# N=%lld distinct=%lld buckets=%zu KS=%.5f\n",
              static_cast<long long>(truth.TotalCount()),
              static_cast<long long>(truth.DistinctCount()),
              model.NumBuckets(), KsStatistic(truth, model));
  std::printf("value,true_count,estimated_count\n");
  const CompiledSnapshot compiled = CompiledSnapshot::Compile(model);
  for (const ValueFreq& e : truth.NonZeroEntries()) {
    std::printf("%lld,%.0f,%.3f\n", static_cast<long long>(e.value), e.freq,
                compiled.EstimatePoint(e.value));
  }
  return 0;
}
