// Flat snapshot arena: the one evaluator of the §2.1 estimation rule.
//
// A HistogramModel is export data (pieces and buckets); it answers no
// queries. Every estimate in dynhist — the engine's reads, the wire
// tier's remote queries, the selectivity front end, the KS and Eq. (7)
// metrics — compiles the model once into this arena: a single
// cache-aligned block holding
//
//     rights[n]      piece right borders, ascending (the search array)
//     rows[n + 1]    {left, count, width, prefix} per piece, 32-byte rows,
//                    plus a sentinel row whose prefix is the total mass
//
// CdfMass(x) is one branch-free upper_bound over `rights` plus an
// interpolation inside the found row; EstimateRange(lo, hi) runs its two
// searches interleaved, so their dependent-load chains overlap, then
// subtracts. O(log pieces), no allocation, one predictable dispatch
// branch. The layout follows the tree-like bucket-index form
// (arXiv cs/0501020) in its flattened two-array shape, and matches the
// contiguous border/cumulative-mass serialization of HistogramTools
// (arXiv 2504.00001) — `borders()`/`rows()` expose the arrays so the
// distributed tier can ship them as its zero-copy wire payload.
//
// Parity contract: the arena computes exactly what the piece walk the
// library used before it did — the same subtraction for widths, the same
// `count * (x - left) / width` interpolation, prefix masses accumulated
// in piece order. That walk now lives only in the tests' reference
// library (tests/piece_walk_reference.h), and compiled_snapshot_test
// pins the arena and the metrics built on it to it bit for bit.
//
// The search primitive is branch-free (cmov-style): each halving step is
// `base += (base[half-1] <= x) * half`, so a mispredicted-branch pipeline
// flush never happens. When the toolchain supports -mavx2 (CMake feature
// check) an AVX2 variant finishes the search with a vectorized
// compare+popcount over the last <= 8 borders; it is selected at runtime
// via cpuid, and the scalar fallback is always built.

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

  /// Compiles bare pieces (ascending, non-overlapping, positive widths —
  /// the HistogramModel invariants) without building a model first.
  static CompiledSnapshot Compile(
      const std::vector<HistogramModel::Piece>& pieces) {
    return CompiledSnapshot(pieces);
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

  /// Mass strictly left of x, in (-inf, x): one branch-free search.
  /// Empty arenas return 0.
  double CdfMass(double x) const;

  /// The inverse of CdfMass: the smallest x with CdfMass(x) >= mass,
  /// interpolated inside the piece whose prefix range reaches `mass` (an
  /// empty piece answers its left border). Masses past the total return
  /// the last right border; empty arenas return 0.
  double InverseCdf(double mass) const;

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
