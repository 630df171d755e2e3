#include "tests/piece_walk_reference.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace dynhist::reference {

PieceWalk::PieceWalk(const HistogramModel& model) : pieces_(model.pieces()) {
  prefix_mass_.resize(pieces_.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < pieces_.size(); ++i) {
    prefix_mass_[i] = acc;
    acc += pieces_[i].count;
  }
  total_ = acc;
}

double PieceWalk::CdfMass(double x) const {
  if (pieces_.empty()) return 0.0;
  // First piece whose right border exceeds x contains (or follows) x.
  const auto it = std::upper_bound(
      pieces_.begin(), pieces_.end(), x,
      [](double v, const HistogramModel::Piece& p) { return v < p.right; });
  if (it == pieces_.end()) return total_;
  const auto i = static_cast<std::size_t>(it - pieces_.begin());
  const HistogramModel::Piece& p = *it;
  if (x <= p.left) return prefix_mass_[i];
  return prefix_mass_[i] + p.count * (x - p.left) / p.Width();
}

double PieceWalk::MassInRealRange(double lo, double hi) const {
  DH_CHECK(lo <= hi);
  return CdfMass(hi) - CdfMass(lo);
}

double PieceWalk::EstimateRange(std::int64_t lo, std::int64_t hi) const {
  if (hi < lo) return 0.0;
  // Integer value v occupies [v, v+1), so [lo, hi] covers [lo, hi+1).
  return MassInRealRange(static_cast<double>(lo),
                         static_cast<double>(hi) + 1.0);
}

namespace {

// Truth CDF under the continuous-value convention: value v's mass is
// spread uniformly on [v, v+1). Mass strictly left of x.
double TruthCdfMass(const FrequencyVector& truth, double x) {
  const double floor_x = std::floor(x);
  const auto v = static_cast<std::int64_t>(floor_x);
  const double below = static_cast<double>(truth.CumulativeCount(v - 1));
  const double frac = x - floor_x;
  if (frac == 0.0) return below;
  return below + frac * static_cast<double>(truth.Count(v));
}

void AppendBorders(const HistogramModel& model, std::vector<double>* points) {
  for (const HistogramModel::Piece& p : model.pieces()) {
    points->push_back(p.left);
    points->push_back(p.right);
  }
}

void SortUnique(std::vector<double>* points) {
  std::sort(points->begin(), points->end());
  points->erase(std::unique(points->begin(), points->end()), points->end());
}

}  // namespace

double WalkKsStatistic(const FrequencyVector& truth,
                       const HistogramModel& model) {
  const auto n1 = static_cast<double>(truth.TotalCount());
  const double n2 = model.TotalCount();
  if (n1 == 0.0 && n2 == 0.0) return 0.0;
  if (n1 == 0.0 || n2 == 0.0) return 1.0;
  std::vector<double> points;
  for (const ValueFreq& e : truth.NonZeroEntries()) {
    points.push_back(static_cast<double>(e.value));
    points.push_back(static_cast<double>(e.value) + 1.0);
  }
  AppendBorders(model, &points);
  SortUnique(&points);
  const PieceWalk walk(model);
  double max_dev = 0.0;
  for (const double x : points) {
    const double f1 = TruthCdfMass(truth, x) / n1;
    const double f2 = walk.CdfMass(x) / n2;
    max_dev = std::max(max_dev, std::fabs(f1 - f2));
  }
  return max_dev;
}

double WalkKsBetweenModels(const HistogramModel& a, const HistogramModel& b) {
  const double na = a.TotalCount();
  const double nb = b.TotalCount();
  if (na == 0.0 && nb == 0.0) return 0.0;
  if (na == 0.0 || nb == 0.0) return 1.0;
  std::vector<double> points;
  AppendBorders(a, &points);
  AppendBorders(b, &points);
  SortUnique(&points);
  const PieceWalk wa(a);
  const PieceWalk wb(b);
  double max_dev = 0.0;
  for (const double x : points) {
    const double fa = wa.CdfMass(x) / na;
    const double fb = wb.CdfMass(x) / nb;
    max_dev = std::max(max_dev, std::fabs(fa - fb));
  }
  return max_dev;
}

double WalkAvgRelativeErrorPercent(const FrequencyVector& truth,
                                   const HistogramModel& model,
                                   const std::vector<RangeQuery>& queries) {
  const PieceWalk walk(model);
  double sum = 0.0;
  std::size_t counted = 0;
  for (const RangeQuery& q : queries) {
    const auto actual = static_cast<double>(truth.RangeCount(q.lo, q.hi));
    if (actual == 0.0) continue;  // relative error undefined
    const double estimated = walk.EstimateRange(q.lo, q.hi);
    sum += std::fabs(actual - estimated) / actual;
    ++counted;
  }
  if (counted == 0) return 0.0;
  return 100.0 * sum / static_cast<double>(counted);
}

}  // namespace dynhist::reference
