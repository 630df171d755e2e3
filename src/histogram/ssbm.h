// Successive Similar Bucket Merge (SSBM) static histogram (§5).
//
// SSBM starts from the exact histogram (one bucket per non-empty distinct
// value) and repeatedly merges the adjacent bucket pair whose *merged*
// bucket would have the smallest deviation rho_M (Eq. 4) — "merging the
// most similar buckets first" — until only the requested number of buckets
// remains. Equal keys break to the leftmost pair, so the merge sequence is
// a function of the input alone. The paper reports SSBM quality comparable
// to V-Optimal at a fraction of the construction cost; our implementation
// selects each merge from an indexed min-heap holding one entry per live
// adjacent pair (built once by linear heapify; a merge deletes the right
// pair's entry and re-keys the merged pair and its left neighbour in
// place), O(D log D) rather than the paper's quadratic scan. Both run the
// same merge sequence, bit for bit; only the selection cost differs.

#ifndef DYNHIST_HISTOGRAM_SSBM_H_
#define DYNHIST_HISTOGRAM_SSBM_H_

#include <cstdint>
#include <vector>

#include "src/data/frequency_vector.h"
#include "src/histogram/deviation.h"
#include "src/histogram/model.h"
#include "src/histogram/static_common.h"

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
  /// cost model (§5) — instead of the default indexed min-heap. Both take
  /// the smallest key, ties to the leftmost pair, so the output is
  /// identical; only the cost differs. Used by the Fig. 13 cost benchmark.
  bool use_quadratic_scan = false;
};

/// Slice-input SSBM with reusable scratch: the merge buckets, the indexed
/// heap over adjacent pairs and the export ranges stay allocated across
/// calls, so repeated builds of similar size allocate only the returned
/// model. The free BuildSsbm overloads use a fresh builder per call; the
/// snapshot merger keeps one. Not thread-safe.
class SsbmBuilder {
 public:
  /// Same contract and output as BuildSsbm(slices, buckets, options).
  HistogramModel Build(const std::vector<HistogramModel::Piece>& slices,
                       std::int64_t buckets, const SsbmOptions& options = {});

 private:
  // Live bucket state during merging. A bucket's id is the index of its
  // first slice (a merge folds the right bucket into the left one), and
  // it covers slices [id, next) (to the end when it is the last bucket).
  // Extents are *data* extents [first slice left, last slice right); the
  // gap between two buckets joins the merged bucket's extent when they
  // merge (its zero density then counts toward the deviation, per Eq. 3/5
  // with j over all domain values). `sum_dsq` is the integral of the
  // squared density over the covered slices, which for width-1 slices is
  // exactly the paper's sum of squared frequencies — so unit-slice input
  // reproduces the per-value algorithm bit for bit.
  struct MergeBucket {
    double left = 0.0;     // left border of the first slice
    double right = 0.0;    // right border of the last slice
    double total = 0.0;    // sum of slice counts
    double sum_dsq = 0.0;  // integral of density^2 over the covered slices
    std::uint32_t prev = 0;
    std::uint32_t next = 0;
  };

  // The pair (left_id, its right neighbour) with its merge key. The merge
  // order: smallest key first, ties to the leftmost pair. A merge folds
  // the right bucket into the left one, so ids increase left to right and
  // this is the pair the left-to-right scan picks. It is a strict total
  // order on the live pairs, so the heap and the scan pick the same one.
  struct PairEntry {
    double key = 0.0;
    std::uint32_t left_id = 0;
    bool operator<(const PairEntry& other) const {
      return key < other.key || (key == other.key && left_id < other.left_id);
    }
  };

  // Indexed min-heap maintenance over heap_, keeping pos_ in step.
  void Place(std::size_t i, const PairEntry& e);
  void SiftUp(std::size_t i);
  void SiftDown(std::size_t i);
  void Fix(std::size_t i);
  void Erase(std::uint32_t left_id);

  std::vector<MergeBucket> bucket_;  // indexed by bucket id
  std::vector<PairEntry> heap_;      // one entry per live pair
  std::vector<std::uint32_t> pos_;   // heap_ position, by left bucket id
  std::vector<internal::BucketSlice> out_;
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
