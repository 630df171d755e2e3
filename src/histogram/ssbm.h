// Successive Similar Bucket Merge (SSBM) static histogram (§5).
//
// SSBM starts from the exact histogram (one bucket per non-empty distinct
// value) and repeatedly merges the adjacent bucket pair whose *merged*
// bucket would have the smallest deviation rho_M (Eq. 4) — "merging the
// most similar buckets first" — until only the requested number of buckets
// remains. Equal keys break to the leftmost pair, so the merge sequence is
// a function of the input alone. The paper reports SSBM quality comparable
// to V-Optimal at a fraction of the construction cost; our implementation
// selects each merge from a lazy min-heap over adjacent pairs (O(D log D)
// rather than the paper's quadratic scan — the same merge sequence, bit for
// bit, with cheaper selection).

#ifndef DYNHIST_HISTOGRAM_SSBM_H_
#define DYNHIST_HISTOGRAM_SSBM_H_

#include <cstdint>
#include <vector>

#include "src/data/frequency_vector.h"
#include "src/histogram/deviation.h"
#include "src/histogram/model.h"

namespace dynhist {

/// Tuning knobs for SSBM construction.
struct SsbmOptions {
  /// Deviation measure inside Eq. (4). The paper uses squared deviations.
  DeviationPolicy policy = DeviationPolicy::kSquared;

  /// What the merge selection minimizes (ablation, DESIGN.md):
  enum class MergeKey {
    kMergedDeviation,    ///< rho of the merged bucket (the paper's rule)
    kDeviationIncrease,  ///< rho_M - rho_1 - rho_2 (delta-rho alternative)
  };
  MergeKey merge_key = MergeKey::kMergedDeviation;

  /// Select each merge by a full scan over the surviving adjacent pairs —
  /// the paper's "quadratic in the number of distinct attribute values"
  /// cost model (§5) — instead of the default lazy min-heap. Both take the
  /// smallest key, ties to the leftmost pair, so the output is identical;
  /// only the cost differs. Used by the Fig. 13 cost benchmark.
  bool use_quadratic_scan = false;
};

/// Builds an SSBM histogram with at most `buckets` buckets.
HistogramModel BuildSsbm(const std::vector<ValueFreq>& entries,
                         std::int64_t buckets, const SsbmOptions& options = {});

/// Slice-input SSBM: partitions weighted piecewise-uniform slices instead
/// of per-value frequencies. `slices` must be ascending, non-overlapping,
/// each with positive width and non-negative count. A distinct integer
/// value is exactly the width-1 slice [v, v+1), and on such input this
/// overload reproduces the per-value overload bit for bit (the deviation of
/// a bucket uses the integral of its squared density, which equals the sum
/// of squared frequencies when every slice is one cell). Wider slices are
/// treated as already-uniform runs — merges split only at slice borders —
/// which is what lets the distributed/engine snapshot reduction feed a
/// superimposed composite to SSBM without enumerating integer cells
/// (O(pieces) instead of O(domain)).
HistogramModel BuildSsbm(const std::vector<HistogramModel::Piece>& slices,
                         std::int64_t buckets, const SsbmOptions& options = {});

/// Convenience overload reading the current state of a FrequencyVector.
HistogramModel BuildSsbm(const FrequencyVector& data, std::int64_t buckets,
                         const SsbmOptions& options = {});

}  // namespace dynhist

#endif  // DYNHIST_HISTOGRAM_SSBM_H_
