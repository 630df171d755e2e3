#include "src/histogram/compiled_snapshot.h"

#include <algorithm>
#include <utility>

namespace dynhist {
namespace compiled_internal {

std::size_t UpperBoundScalar(const double* a, std::size_t n, double x) {
  const double* base = a;
  std::size_t len = n;
  while (len > 1) {
    const std::size_t half = len / 2;
    // The bool-to-size_t multiply forces a flagless update (cmov/lea), so
    // the loop never takes a data-dependent branch.
    base += static_cast<std::size_t>(base[half - 1] <= x) * half;
    len -= half;
  }
  return static_cast<std::size_t>(base - a) +
         static_cast<std::size_t>(*base <= x);
}

void UpperBound2Scalar(const double* a, std::size_t n, double x1, double x2,
                       std::size_t* i1, std::size_t* i2) {
  // Both searches share the same halving schedule, so one loop advances
  // two independent base pointers: the two cache-miss/latency chains
  // overlap instead of running back to back.
  const double* b1 = a;
  const double* b2 = a;
  std::size_t len = n;
  while (len > 1) {
    const std::size_t half = len / 2;
    b1 += static_cast<std::size_t>(b1[half - 1] <= x1) * half;
    b2 += static_cast<std::size_t>(b2[half - 1] <= x2) * half;
    len -= half;
  }
  *i1 = static_cast<std::size_t>(b1 - a) +
        static_cast<std::size_t>(*b1 <= x1);
  *i2 = static_cast<std::size_t>(b2 - a) +
        static_cast<std::size_t>(*b2 <= x2);
}

namespace {

// Resolved once per process: use the AVX2 search when it was compiled in
// and the CPU reports support. The per-call cost is one well-predicted
// branch on this constant.
#if DYNHIST_HAVE_AVX2 && defined(__x86_64__) && defined(__GNUC__)
const bool kUseAvx2 = __builtin_cpu_supports("avx2") != 0;
#else
constexpr bool kUseAvx2 = false;
#endif

}  // namespace

std::size_t UpperBound(const double* a, std::size_t n, double x) {
#if DYNHIST_HAVE_AVX2
  if (kUseAvx2) return UpperBoundAvx2(a, n, x);
#endif
  return UpperBoundScalar(a, n, x);
}

void UpperBound2(const double* a, std::size_t n, double x1, double x2,
                 std::size_t* i1, std::size_t* i2) {
#if DYNHIST_HAVE_AVX2
  if (kUseAvx2) {
    UpperBound2Avx2(a, n, x1, x2, i1, i2);
    return;
  }
#endif
  UpperBound2Scalar(a, n, x1, x2, i1, i2);
}

bool SimdActive() { return kUseAvx2; }

}  // namespace compiled_internal

CompiledSnapshot::CompiledSnapshot()
    : CompiledSnapshot(std::vector<HistogramModel::Piece>()) {}

CompiledSnapshot::CompiledSnapshot(
    const std::vector<HistogramModel::Piece>& pieces)
    : n_(pieces.size()) {
  // Rights lines, then ceil((n + 1) rows * 4 doubles / 8) row lines;
  // value-initialized, so the padding is zero.
  lines_.resize(RightsSpan(n_) / 8 + (n_ + 2) / 2);
  auto* rights = reinterpret_cast<double*>(lines_.data());
  auto* rows = reinterpret_cast<Row*>(rights + RightsSpan(n_));

  // Prefix masses accumulate in piece order — the same summation the
  // model's constructor performs — so prefix and total are bit-identical
  // to the piece-walk path's.
  double acc = 0.0;
  for (std::size_t i = 0; i < n_; ++i) {
    const HistogramModel::Piece& p = pieces[i];
    rights[i] = p.right;
    rows[i] = Row{p.left, p.count, p.right - p.left, acc};
    acc += p.count;
  }
  // Sentinel: lookups past the last border read total mass with zero
  // in-piece contribution (count 0 over a nonzero width).
  rows[n_] = Row{n_ > 0 ? pieces[n_ - 1].right : 0.0, 0.0, 1.0, acc};
}

HistogramModel CompiledSnapshot::ToModel() const {
  const double* rights = borders();
  const Row* r = rows();
  std::vector<HistogramModel::Piece> pieces;
  pieces.reserve(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    pieces.push_back({r[i].left, rights[i], r[i].count});
  }
  return HistogramModel::FromSimpleBuckets(std::move(pieces));
}

double CompiledSnapshot::CdfMass(double x) const {
  if (n_ == 0) return 0.0;  // empty support
  const std::size_t i = compiled_internal::UpperBound(borders(), n_, x);
  const Row& r = rows()[i];
  // max() clamps the before-this-piece case (x <= left, including gaps
  // between pieces) to the bare prefix without a branch; inside a piece
  // the interpolation is the model's exact expression.
  const double in_piece = std::max(x - r.left, 0.0);
  return r.prefix + r.count * in_piece / r.width;
}

double CompiledSnapshot::MassInRealRange(double lo, double hi) const {
  if (n_ == 0) return 0.0;
  std::size_t ilo, ihi;
  compiled_internal::UpperBound2(borders(), n_, lo, hi, &ilo, &ihi);
  const Row* r = rows();
  const Row& rl = r[ilo];
  const Row& rh = r[ihi];
  const double mlo = rl.prefix + rl.count * std::max(lo - rl.left, 0.0) / rl.width;
  const double mhi = rh.prefix + rh.count * std::max(hi - rh.left, 0.0) / rh.width;
  return mhi - mlo;
}

double CompiledSnapshot::EstimateRange(std::int64_t lo, std::int64_t hi) const {
  if (hi < lo) return 0.0;
  // Integer value v occupies [v, v+1), so [lo, hi] covers [lo, hi+1).
  return MassInRealRange(static_cast<double>(lo),
                         static_cast<double>(hi) + 1.0);
}

}  // namespace dynhist
