// Optimizer-facing selectivity estimation (§1).
//
// "The cost of executing a relational operator is a function of the sizes
// of the tuple streams that are input to the operator" — the whole point of
// maintaining histograms is answering selectivity questions for query
// predicates. This module is that front end: given any histogram snapshot,
// it estimates the selectivity (result fraction) and cardinality (result
// size) of the predicate shapes the paper discusses — equality, closed
// ranges (a <= A <= b), and open ranges (A <= b, A >= a).
//
// Backends: the estimator is a cheap, allocation-free view over either a
// HistogramModel (piece-walk binary search) or a CompiledSnapshot (the
// flat prefix-CDF arena built at publish time; branch-free lower_bound).
// Construct from whichever you hold — answers are bit-identical by the
// CompiledSnapshot parity contract. An engine snapshot always carries
// its arena, so wrap EngineSnapshot::compiled(); single-threaded users
// can compile any model once (CompiledSnapshot::Compile) to get the
// engine's fast query path without an engine.

#ifndef DYNHIST_ESTIMATE_SELECTIVITY_H_
#define DYNHIST_ESTIMATE_SELECTIVITY_H_

#include <cstdint>

#include "src/common/check.h"
#include "src/histogram/compiled_snapshot.h"
#include "src/histogram/model.h"

namespace dynhist {

/// Selectivity estimates against one histogram snapshot. The estimator
/// borrows its backend; it must not outlive it.
class SelectivityEstimator {
 public:
  explicit SelectivityEstimator(const HistogramModel& model)
      : model_(&model), compiled_(nullptr) {}

  /// Arena backend; `compiled` must be attached.
  explicit SelectivityEstimator(const CompiledSnapshot& compiled)
      : model_(nullptr), compiled_(&compiled) {
    DH_CHECK(compiled.attached());
  }

  /// True when queries run on the flat arena rather than the piece walk.
  bool compiled() const { return compiled_ != nullptr; }

  /// Estimated number of tuples with A = v.
  double CardinalityEquals(std::int64_t v) const {
    return compiled_ != nullptr ? compiled_->EstimatePoint(v)
                                : model_->EstimatePoint(v);
  }

  /// Estimated number of tuples with lo <= A <= hi.
  double CardinalityRange(std::int64_t lo, std::int64_t hi) const {
    return compiled_ != nullptr ? compiled_->EstimateRange(lo, hi)
                                : model_->EstimateRange(lo, hi);
  }

  /// Estimated number of tuples with A <= hi.
  double CardinalityAtMost(std::int64_t hi) const {
    return CdfAt(static_cast<double>(hi) + 1.0);
  }

  /// Estimated number of tuples with A >= lo.
  double CardinalityAtLeast(std::int64_t lo) const {
    return Total() - CdfAt(static_cast<double>(lo));
  }

  /// Selectivities: the above as fractions of the relation (0 when empty).
  double SelectivityEquals(std::int64_t v) const {
    return Fraction(CardinalityEquals(v));
  }
  double SelectivityRange(std::int64_t lo, std::int64_t hi) const {
    return Fraction(CardinalityRange(lo, hi));
  }
  double SelectivityAtMost(std::int64_t hi) const {
    return Fraction(CardinalityAtMost(hi));
  }
  double SelectivityAtLeast(std::int64_t lo) const {
    return Fraction(CardinalityAtLeast(lo));
  }

 private:
  double CdfAt(double x) const {
    return compiled_ != nullptr ? compiled_->CdfMass(x) : model_->CdfMass(x);
  }

  double Total() const {
    return compiled_ != nullptr ? compiled_->TotalCount()
                                : model_->TotalCount();
  }

  double Fraction(double cardinality) const {
    const double total = Total();
    return total > 0.0 ? cardinality / total : 0.0;
  }

  const HistogramModel* model_;        // null in arena form
  const CompiledSnapshot* compiled_;   // null => piece-walk backend
};

}  // namespace dynhist

#endif  // DYNHIST_ESTIMATE_SELECTIVITY_H_
