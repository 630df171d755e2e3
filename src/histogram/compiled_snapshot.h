// Flat snapshot arena: the published model compiled to a prefix-CDF index.
//
// A HistogramModel answers CdfMass(x) by binary-searching its piece list —
// a vector of 24-byte Piece structs walked through an iterator/lambda
// upper_bound, with the prefix masses in a second vector. That is fine for
// construction-time consumers (KS scoring, reduction), but it is the hot
// path of every EstimateRange the engine serves, and snapshots are
// immutable by design: once published, a model never changes. So the
// publish path compiles each snapshot ONCE into this arena — a single
// cache-aligned block holding
//
//     rights[n]      piece right borders, ascending (the search array)
//     rows[n + 1]    {left, count, width, prefix} per piece, 32-byte rows,
//                    plus a sentinel row whose prefix is the total mass
//
// and EstimateRange(lo, hi) becomes two branch-free lower_bound lookups
// over `rights` (run interleaved, so their dependent-load chains overlap)
// plus an interpolated prefix subtraction: O(log pieces), no allocation,
// no piece-struct pointer chasing, one predictable dispatch branch. The
// layout follows the tree-like bucket-index form (arXiv cs/0501020) in
// its flattened two-array shape, and matches the contiguous
// border/cumulative-mass serialization of HistogramTools
// (arXiv 2504.00001) — `borders()`/`rows()` expose the arrays so the
// distributed tier can ship them as its zero-copy wire payload.
//
// Parity contract: every query is computed with the exact arithmetic of
// HistogramModel::CdfMass — the same subtraction for widths, the same
// `count * (x - left) / width` interpolation, prefix masses accumulated
// in the same order — so compiled and piece-walk answers are bit-identical
// (the parity suite pins them to <= 1e-12, and in practice to equality).
//
// The search primitive is branch-free (cmov-style): each halving step is
// `base += (base[half-1] <= x) * half`, so a mispredicted-branch pipeline
// flush never happens. When the toolchain supports -mavx2 (CMake feature
// check, DYNHIST_ENABLE_SIMD) an AVX2 variant finishes the search with a
// vectorized compare+popcount over the last <= 8 borders; it is selected
// at runtime via cpuid, and the scalar fallback is always built.

#ifndef DYNHIST_HISTOGRAM_COMPILED_SNAPSHOT_H_
#define DYNHIST_HISTOGRAM_COMPILED_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/histogram/model.h"

namespace dynhist {

namespace compiled_internal {

/// Index of the first element of ascending `a[0..n)` greater than `x`
/// (i.e. std::upper_bound), via the branch-free halving loop. n >= 1.
std::size_t UpperBoundScalar(const double* a, std::size_t n, double x);

/// Two upper_bound searches over one array, interleaved so the two
/// dependent-load chains overlap in the pipeline. n >= 1.
void UpperBound2Scalar(const double* a, std::size_t n, double x1, double x2,
                       std::size_t* i1, std::size_t* i2);

/// AVX2 variants: branch-free descent to a <= 8-wide window, then a
/// vectorized compare + popcount. Defined only in builds where CMake's
/// -mavx2 feature check passed (DYNHIST_HAVE_AVX2); call through the
/// dispatched UpperBound/UpperBound2 below, never directly.
std::size_t UpperBoundAvx2(const double* a, std::size_t n, double x);
void UpperBound2Avx2(const double* a, std::size_t n, double x1, double x2,
                     std::size_t* i1, std::size_t* i2);

/// Runtime-dispatched entry points: AVX2 when compiled in and the CPU
/// reports support, scalar otherwise. Exact same results either way.
std::size_t UpperBound(const double* a, std::size_t n, double x);
void UpperBound2(const double* a, std::size_t n, double x1, double x2,
                 std::size_t* i1, std::size_t* i2);

/// True when queries in this process run the AVX2 search.
bool SimdActive();

}  // namespace compiled_internal

/// The flat, immutable, query-optimized form of one HistogramModel. A
/// plain value: copies are deep, moves steal the arena (a moved-from
/// instance may only be assigned or destroyed), and a default-constructed
/// instance is the empty arena — identical to Compile(HistogramModel()).
class CompiledSnapshot {
 public:
  /// One piece's payload row plus the running prefix mass. 32 bytes; the
  /// arena stores n + 1 of these, the last being the sentinel
  /// {max_border, 0, 1, total} that makes past-the-end lookups total-mass
  /// reads without a branch.
  struct Row {
    double left = 0.0;    ///< piece left border
    double count = 0.0;   ///< piece mass
    double width = 0.0;   ///< right - left (same subtraction as Piece::Width)
    double prefix = 0.0;  ///< mass strictly left of `left`
  };

  /// The empty arena: no pieces, answers 0 everywhere.
  CompiledSnapshot();

  /// Compiles `model` into a fresh arena. O(pieces) time and one
  /// allocation.
  static CompiledSnapshot Compile(const HistogramModel& model) {
    return CompiledSnapshot(model.pieces());
  }

  /// The arena's pieces as a model: one single-piece bucket per row, with
  /// {left, right, count} bit-identical to the compiled model's pieces.
  /// The source's bucket grouping and `singular` flags are not kept.
  /// O(pieces) and allocating — a cold-path accessor.
  HistogramModel ToModel() const;

  std::size_t NumPieces() const { return n_; }

  /// Total mass (the sentinel's prefix); bit-identical to the source
  /// model's TotalCount().
  double TotalCount() const { return rows()[n_].prefix; }

  /// Mass strictly left of x — HistogramModel::CdfMass, one branch-free
  /// search. Empty arenas return 0.
  double CdfMass(double x) const;

  /// Mass in the real interval [lo, hi); requires lo <= hi.
  double MassInRealRange(double lo, double hi) const;

  /// Estimated points with integer value in [lo, hi] inclusive — the
  /// range-predicate selectivity, as one fused dual search.
  double EstimateRange(std::int64_t lo, std::int64_t hi) const;

  /// Estimated points with value exactly v.
  double EstimatePoint(std::int64_t v) const { return EstimateRange(v, v); }

  /// Zero-copy views of the arena (the distributed tier's wire payload):
  /// `borders()` is the n ascending right borders the search runs over,
  /// `rows()` the n + 1 payload rows.
  const double* borders() const {
    return reinterpret_cast<const double*>(lines_.data());
  }
  const Row* rows() const {
    return reinterpret_cast<const Row*>(borders() + RightsSpan(n_));
  }

  /// Equal when the arenas hold the same bytes, padding included.
  friend bool operator==(const CompiledSnapshot&,
                         const CompiledSnapshot&) = default;

 private:
  // One cache line of arena storage. The layout is [rights: n doubles,
  // padded to a full line][rows: (n + 1) Rows, padded to a full line];
  // the vector's allocator honours the 64-byte alignment. Byte storage
  // (zeroed) so the doubles and Rows placed in it are objects it
  // provides storage for.
  struct alignas(64) Line {
    std::byte bytes[64] = {};
    friend bool operator==(const Line&, const Line&) = default;
  };

  // Doubles reserved for the rights array so the row block starts on its
  // own cache line.
  static constexpr std::size_t RightsSpan(std::size_t n) {
    return (n + 7) & ~std::size_t{7};
  }

  explicit CompiledSnapshot(const std::vector<HistogramModel::Piece>& pieces);

  std::vector<Line> lines_;
  std::size_t n_ = 0;
};

}  // namespace dynhist

#endif  // DYNHIST_HISTOGRAM_COMPILED_SNAPSHOT_H_
