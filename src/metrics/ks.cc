#include "src/metrics/ks.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/histogram/compiled_snapshot.h"

namespace dynhist {

namespace {

// Truth CDF under the continuous-value convention: value v's mass is spread
// uniformly on [v, v+1). Mass strictly left of x.
double TruthCdfMass(const FrequencyVector& truth, double x) {
  const double floor_x = std::floor(x);
  const auto v = static_cast<std::int64_t>(floor_x);
  const double below = static_cast<double>(truth.CumulativeCount(v - 1));
  const double frac = x - floor_x;
  if (frac == 0.0) return below;
  return below + frac * static_cast<double>(truth.Count(v));
}

}  // namespace

double KsStatistic(const FrequencyVector& truth, const HistogramModel& model) {
  const auto n1 = static_cast<double>(truth.TotalCount());
  const double n2 = model.TotalCount();
  if (n1 == 0.0 && n2 == 0.0) return 0.0;
  if (n1 == 0.0 || n2 == 0.0) return 1.0;

  // Breakpoints of F1: cell borders v and v+1 for every value with mass.
  // Breakpoints of F2: every piece border. The difference of the two
  // normalized CDFs is linear between consecutive breakpoints.
  std::vector<double> points;
  points.reserve(2 * static_cast<std::size_t>(truth.DistinctCount()) +
                 2 * model.NumPieces() + 2);
  for (const ValueFreq& e : truth.NonZeroEntries()) {
    points.push_back(static_cast<double>(e.value));
    points.push_back(static_cast<double>(e.value) + 1.0);
  }
  for (const HistogramModel::Piece& p : model.pieces()) {
    points.push_back(p.left);
    points.push_back(p.right);
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());

  const CompiledSnapshot compiled = CompiledSnapshot::Compile(model);
  double max_dev = 0.0;
  for (const double x : points) {
    const double f1 = TruthCdfMass(truth, x) / n1;
    const double f2 = compiled.CdfMass(x) / n2;
    max_dev = std::max(max_dev, std::fabs(f1 - f2));
  }
  return max_dev;
}

double KsBetweenModels(const HistogramModel& a, const HistogramModel& b) {
  const double na = a.TotalCount();
  const double nb = b.TotalCount();
  if (na == 0.0 && nb == 0.0) return 0.0;
  if (na == 0.0 || nb == 0.0) return 1.0;

  std::vector<double> points;
  points.reserve(2 * (a.NumPieces() + b.NumPieces()));
  for (const HistogramModel::Piece& p : a.pieces()) {
    points.push_back(p.left);
    points.push_back(p.right);
  }
  for (const HistogramModel::Piece& p : b.pieces()) {
    points.push_back(p.left);
    points.push_back(p.right);
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());

  const CompiledSnapshot ca = CompiledSnapshot::Compile(a);
  const CompiledSnapshot cb = CompiledSnapshot::Compile(b);
  double max_dev = 0.0;
  for (const double x : points) {
    const double fa = ca.CdfMass(x) / na;
    const double fb = cb.CdfMass(x) / nb;
    max_dev = std::max(max_dev, std::fabs(fa - fb));
  }
  return max_dev;
}

}  // namespace dynhist
