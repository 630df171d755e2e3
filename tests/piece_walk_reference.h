// The piece-walk estimator, kept only as a parity reference.
//
// dynhist evaluates the §2.1 estimation rule (mass spread uniformly
// inside each piece, every value present) in one place: the compiled
// arena (src/histogram/compiled_snapshot.h). This file keeps the walk the
// library used before the arena existed: an iterator upper_bound over
// the model's pieces plus a prefix-mass array filled in piece order.
// Its users:
//   - compiled_snapshot_test's parity suite, which pins the arena and the
//     metrics built on it to these functions bit for bit;
//   - micro_engine_throughput's PieceWalkReplica, the baseline of the
//     compiled-query gate;
//   - merge_reference.cc's legacy superposition, which integrates the
//     input models with it.

#ifndef DYNHIST_TESTS_PIECE_WALK_REFERENCE_H_
#define DYNHIST_TESTS_PIECE_WALK_REFERENCE_H_

#include <cstdint>
#include <vector>

#include "src/data/frequency_vector.h"
#include "src/histogram/model.h"
#include "src/metrics/query_error.h"

namespace dynhist::reference {

/// A model's pieces with their prefix masses, queried by binary search
/// over the piece list. Same conventions as CompiledSnapshot: integer
/// value v occupies [v, v+1).
class PieceWalk {
 public:
  explicit PieceWalk(const HistogramModel& model);

  double TotalCount() const { return total_; }

  /// Mass strictly to the left of x. O(log pieces).
  double CdfMass(double x) const;

  /// Mass in the real interval [lo, hi). Requires lo <= hi.
  double MassInRealRange(double lo, double hi) const;

  /// Estimated points with integer value in [lo, hi] inclusive.
  double EstimateRange(std::int64_t lo, std::int64_t hi) const;

  double EstimatePoint(std::int64_t v) const { return EstimateRange(v, v); }

 private:
  std::vector<HistogramModel::Piece> pieces_;
  std::vector<double> prefix_mass_;  // mass strictly left of pieces_[i].left
  double total_ = 0.0;
};

/// KsStatistic, KsBetweenModels and AvgRelativeErrorPercent
/// (src/metrics/) as they were written against the piece walk: same
/// breakpoints, same order of evaluation, PieceWalk queries.
double WalkKsStatistic(const FrequencyVector& truth,
                       const HistogramModel& model);
double WalkKsBetweenModels(const HistogramModel& a, const HistogramModel& b);
double WalkAvgRelativeErrorPercent(const FrequencyVector& truth,
                                   const HistogramModel& model,
                                   const std::vector<RangeQuery>& queries);

}  // namespace dynhist::reference

#endif  // DYNHIST_TESTS_PIECE_WALK_REFERENCE_H_
