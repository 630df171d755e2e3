#include "tests/merge_reference.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/data/frequency_vector.h"
#include "src/histogram/ssbm.h"

namespace dynhist::reference {

HistogramModel SuperimposeLegacy(const std::vector<HistogramModel>& models) {
  // Union of all borders defines the elementary ranges.
  std::vector<double> borders;
  for (const HistogramModel& m : models) {
    for (const HistogramModel::Piece& p : m.pieces()) {
      borders.push_back(p.left);
      borders.push_back(p.right);
    }
  }
  std::sort(borders.begin(), borders.end());
  borders.erase(std::unique(borders.begin(), borders.end()), borders.end());
  if (borders.size() < 2) return HistogramModel();

  std::vector<HistogramModel::Piece> pieces;
  pieces.reserve(borders.size() - 1);
  for (std::size_t i = 0; i + 1 < borders.size(); ++i) {
    const double lo = borders[i];
    const double hi = borders[i + 1];
    double mass = 0.0;
    for (const HistogramModel& m : models) {
      mass += m.MassInRealRange(lo, hi);
    }
    if (mass > 0.0) pieces.push_back({lo, hi, mass});
  }
  return HistogramModel::FromSimpleBuckets(std::move(pieces));
}

HistogramModel ReduceCellsWithSsbm(const HistogramModel& model,
                                   std::int64_t buckets) {
  if (model.Empty()) return HistogramModel();
  const auto first = static_cast<std::int64_t>(std::floor(model.MinBorder()));
  const auto last = static_cast<std::int64_t>(std::ceil(model.MaxBorder()));
  std::vector<ValueFreq> entries;
  for (std::int64_t v = first; v < last; ++v) {
    const double mass = model.MassInRealRange(static_cast<double>(v),
                                              static_cast<double>(v) + 1.0);
    if (mass > 1e-12) entries.push_back({v, mass});
  }
  return BuildSsbm(entries, buckets);
}

}  // namespace dynhist::reference
