// Optimizer-facing selectivity estimation (§1).
//
// "The cost of executing a relational operator is a function of the sizes
// of the tuple streams that are input to the operator" — the whole point of
// maintaining histograms is answering selectivity questions for query
// predicates. This module is that front end: given a histogram snapshot,
// it estimates the selectivity (result fraction) and cardinality (result
// size) of the predicate shapes the paper discusses — equality, closed
// ranges (a <= A <= b), and open ranges (A <= b, A >= a).
//
// The estimator is a cheap, allocation-free view over a CompiledSnapshot,
// the flat prefix-CDF arena that is the library's one estimator. An
// engine snapshot already holds one: wrap EngineSnapshot::compiled().
// Holders of a HistogramModel compile it once
// (CompiledSnapshot::Compile) and wrap the result. Every arena is
// queryable — a default-constructed one is the empty arena.

#ifndef DYNHIST_ESTIMATE_SELECTIVITY_H_
#define DYNHIST_ESTIMATE_SELECTIVITY_H_

#include <cstdint>

#include "src/histogram/compiled_snapshot.h"

namespace dynhist {

/// Selectivity estimates against one compiled snapshot. The estimator
/// borrows the arena; it must not outlive it.
class SelectivityEstimator {
 public:
  explicit SelectivityEstimator(const CompiledSnapshot& compiled)
      : compiled_(&compiled) {}

  /// Estimated number of tuples with A = v.
  double CardinalityEquals(std::int64_t v) const {
    return compiled_->EstimatePoint(v);
  }

  /// Estimated number of tuples with lo <= A <= hi.
  double CardinalityRange(std::int64_t lo, std::int64_t hi) const {
    return compiled_->EstimateRange(lo, hi);
  }

  /// Estimated number of tuples with A <= hi.
  double CardinalityAtMost(std::int64_t hi) const {
    return compiled_->CdfMass(static_cast<double>(hi) + 1.0);
  }

  /// Estimated number of tuples with A >= lo.
  double CardinalityAtLeast(std::int64_t lo) const {
    return compiled_->TotalCount() -
           compiled_->CdfMass(static_cast<double>(lo));
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
  double Fraction(double cardinality) const {
    const double total = compiled_->TotalCount();
    return total > 0.0 ? cardinality / total : 0.0;
  }

  const CompiledSnapshot* compiled_;
};

}  // namespace dynhist

#endif  // DYNHIST_ESTIMATE_SELECTIVITY_H_
