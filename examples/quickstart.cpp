// Quickstart: maintain a dynamic histogram over an insert/delete stream
// and ask it optimizer questions.
//
// Demonstrates the three core moves of the library:
//   1. create a DADO histogram sized to a memory budget,
//   2. feed it the relation's update stream,
//   3. snapshot it and estimate predicate selectivities.
// Also prints the bucket layout so you can see the split/merge machinery
// placing narrow buckets on the spikes (the Fig. 1 / Fig. 4 intuition).

#include <cstdio>

#include "src/dynhist.h"

int main() {
  using namespace dynhist;

  // A histogram that must fit in 256 bytes of catalog space: 21 two-counter
  // buckets (§4.4 space accounting).
  const double memory_bytes = 256.0;
  DynamicVOptHistogram histogram(
      {.buckets = BucketBudget(memory_bytes, BucketLayout::kBorderTwoCounts),
       .policy = DeviationPolicy::kAbsolute});  // DADO

  // The "relation": 20,000 integer attribute values in [0, 1000] — a smooth
  // body plus one hot value at 400 — arriving in random order, followed by
  // deletion of the hot value's tuples.
  Rng rng(7);
  FrequencyVector relation(1'001);
  std::vector<std::int64_t> values;
  for (int i = 0; i < 20'000; ++i) {
    values.push_back(rng.Bernoulli(0.3) ? 400 : rng.UniformInt(0, 1'000));
  }
  UpdateStream stream = MakeRandomInsertStream(values, rng);
  Replay(stream, &histogram, &relation);

  std::printf("after %d inserts: %zu buckets, KS error = %.4f\n",
              20'000, histogram.BucketCount(),
              KsStatistic(relation, histogram.Model()));

  // Optimizer questions against the live histogram.
  const CompiledSnapshot snapshot =
      CompiledSnapshot::Compile(histogram.Model());
  const SelectivityEstimator estimator(snapshot);
  std::printf("selectivity(A = 400)        estimate %.4f   truth %.4f\n",
              estimator.SelectivityEquals(400),
              static_cast<double>(relation.Count(400)) /
                  static_cast<double>(relation.TotalCount()));
  std::printf("selectivity(100 <= A <= 300) estimate %.4f   truth %.4f\n",
              estimator.SelectivityRange(100, 300),
              static_cast<double>(relation.RangeCount(100, 300)) /
                  static_cast<double>(relation.TotalCount()));

  // Now delete every tuple of the hot value; the histogram follows without
  // any rebuild.
  while (relation.Count(400) > 0) {
    histogram.Delete(400, relation.Count(400));
    relation.Delete(400);
  }
  const CompiledSnapshot after =
      CompiledSnapshot::Compile(histogram.Model());
  std::printf("after deleting A=400:       estimate %.4f   truth %.4f\n",
              SelectivityEstimator(after).SelectivityEquals(400), 0.0);
  std::printf("KS after deletions = %.4f (%lld repartitions so far)\n",
              KsStatistic(relation, histogram.Model()),
              static_cast<long long>(histogram.RepartitionCount()));

  // Peek at the bucket layout around the (former) spike.
  std::printf("\nbucket layout (left border, width, count):\n");
  const HistogramModel final_model = histogram.Model();
  for (std::size_t b = 0; b < final_model.NumBuckets(); ++b) {
    const auto pieces = final_model.BucketPieces(b);
    const double left = pieces.front().left;
    const double right = pieces.back().right;
    std::printf("  [%8.2f .. %8.2f)  count %8.1f\n", left, right,
                final_model.BucketCount(b));
  }
  return 0;
}
