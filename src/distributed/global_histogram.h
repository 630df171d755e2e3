// Global histograms over shared-nothing unions (§8).
//
// Two ways to build a union-level histogram within memory M:
//   1. "histogram + union": each site builds a local histogram; the global
//      histogram superimposes them (lossless — a border wherever any input
//      has a border, masses added) and then reduces the composite back to
//      the M-byte bucket budget by treating it as a data set and
//      re-partitioning with SSBM.
//   2. "union + histogram": ship all the data, merge it, and build one
//      histogram directly.
// The paper finds the two "approximately of the same quality"
// (Figs. 20-23); option 1 moves O(M) bytes per site instead of the data.
//
// This machinery is also the concurrent engine's publish path (each ingest
// shard is a "site"), so it is domain-independent end to end: Superimpose
// runs one k-way border sweep over the inputs' pieces (O(total pieces *
// log sites)) and the default SSBM reduction consumes the composite's
// pieces directly as weighted slices (O(pieces * log pieces)) — publish
// cost scales with bucket counts, never with the attribute domain. The
// pre-sweep reference implementations (range-scan superposition and the
// per-integer-cell reduction) live in tests/merge_reference.h, next to
// the parity tests and the merge-pipeline benchmark that use them.

#ifndef DYNHIST_DISTRIBUTED_GLOBAL_HISTOGRAM_H_
#define DYNHIST_DISTRIBUTED_GLOBAL_HISTOGRAM_H_

#include <cstdint>
#include <queue>
#include <vector>

#include "src/distributed/site.h"
#include "src/histogram/model.h"

namespace dynhist::distributed {

/// How a composite model is re-partitioned down to the bucket budget.
/// There is one way: SSBM over the composite's pieces (see
/// ReduceWithSsbm). The enum survives only as MergeAndReduce's
/// ignored trailing argument, which the repo benchmark still names.
enum class ReduceMode {
  kPieces,
};

/// Lossless superposition of histogram models: the result has a border
/// wherever any input has one, and each elementary range carries the sum of
/// the inputs' masses. The result's CDF is exactly the sum of the inputs'.
/// Elementary ranges covered by at least one input keep a piece even at
/// zero mass, so the merged support is exactly the union of the inputs'
/// supports (zero-coverage gaps between pieces stay gaps).
HistogramModel Superimpose(const std::vector<HistogramModel>& models);

/// Reduces a composite model to `buckets` buckets with SSBM, feeding the
/// composite's pieces to it as weighted uniform slices: bucket borders
/// fall on piece borders only, O(pieces log pieces), independent of the
/// attribute domain. Zero-density pieces (below 1e-12 per unit cell) are
/// dropped, so a reduced model's support is the composite's nonzero
/// support.
HistogramModel ReduceWithSsbm(const HistogramModel& model,
                              std::int64_t buckets);

/// Reusable merge pipeline: superimpose + optional SSBM reduction with all
/// intermediate buffers (sweep cursors, composite pieces, reduction slices)
/// retained across calls, so a steady-state publisher allocates nothing
/// proportional to the inputs. Not thread-safe; the engine keeps one per
/// key under its publish lock.
class SnapshotMerger {
 public:
  /// Lossless superposition (same result as the free Superimpose).
  HistogramModel Superimpose(const std::vector<HistogramModel>& models);

  /// Superimpose + ReduceWithSsbm to `buckets` (<= 0 publishes the
  /// composite unreduced). The composite model is never materialized:
  /// the sweep's pieces stream straight into the slice-input SSBM. Empty
  /// models are skipped, so callers may pass them in place.
  HistogramModel MergeAndReduce(const std::vector<HistogramModel>& models,
                                std::int64_t buckets,
                                ReduceMode = ReduceMode::kPieces);

 private:
  // One input model's position in the k-way border sweep. Each piece
  // contributes a left event (density on, coverage +1) and a right event
  // (density off, coverage -1); per model the event positions are
  // non-decreasing (clamped against the model's 1e-9 overlap tolerance).
  struct Cursor {
    const std::vector<HistogramModel::Piece>* pieces = nullptr;
    std::size_t index = 0;        // current piece
    bool at_right = false;        // next event is the piece's right border
    double x = 0.0;               // next event position
    double active_density = 0.0;  // density added by the current left event
  };

  // Runs the sweep over `models` into pieces_.
  void SweepInto(const std::vector<HistogramModel>& models);

  std::vector<Cursor> cursors_;
  std::vector<HistogramModel::Piece> pieces_;  // composite, exactly tiling
  std::vector<HistogramModel::Piece> slices_;  // nonzero pieces for SSBM

  struct HeapEntry {
    double x = 0.0;
    std::uint32_t cursor = 0;
    bool operator>(const HeapEntry& other) const {
      if (x != other.x) return x > other.x;
      return cursor > other.cursor;
    }
  };
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>
      heap_;
};

/// Strategy for building the union-level histogram.
enum class GlobalStrategy {
  kHistogramThenUnion,  ///< local histograms -> superimpose -> reduce
  kUnionThenHistogram,  ///< merge all data -> build one histogram
};

/// Builds the global histogram over `sites` within `memory_bytes` (both the
/// local histograms and the final global histogram get this budget, §8).
HistogramModel BuildGlobalHistogram(const std::vector<Site>& sites,
                                    GlobalStrategy strategy,
                                    double memory_bytes);

}  // namespace dynhist::distributed

#endif  // DYNHIST_DISTRIBUTED_GLOBAL_HISTOGRAM_H_
