#include "src/distributed/global_histogram.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/histogram/budget.h"
#include "src/histogram/ssbm.h"

namespace dynhist::distributed {

namespace {

// Pieces whose density (the mass of one unit cell) is below this are
// empty space to the reduction.
constexpr double kMinDensity = 1e-12;

// SSBM over the nonzero-density `pieces`, staged in *slices (reused).
HistogramModel ReducePieces(const std::vector<HistogramModel::Piece>& pieces,
                            std::int64_t buckets,
                            std::vector<HistogramModel::Piece>* slices) {
  slices->clear();
  for (const HistogramModel::Piece& p : pieces) {
    if (p.Density() > kMinDensity) slices->push_back(p);
  }
  if (slices->empty()) return HistogramModel();
  return BuildSsbm(*slices, buckets);
}

}  // namespace

void SnapshotMerger::SweepInto(const std::vector<HistogramModel>& models) {
  pieces_.clear();
  cursors_.clear();
  DH_DCHECK(heap_.empty());
  for (const HistogramModel& m : models) {
    if (m.Empty()) continue;
    Cursor c;
    c.pieces = &m.pieces();
    c.x = m.pieces().front().left;
    cursors_.push_back(c);
    heap_.push({c.x, static_cast<std::uint32_t>(cursors_.size() - 1)});
  }
  if (cursors_.empty()) return;

  // k-way sweep: pop the globally next border, emit the elementary range it
  // closes, apply the border's density/coverage deltas, and re-queue the
  // cursor's next event. Each piece costs two heap rounds — O(total pieces
  // * log models) overall, independent of range widths and of the domain.
  double density = 0.0;  // sum of the densities of the covering pieces
  int coverage = 0;      // number of covering pieces
  double cur_x = 0.0;
  bool started = false;
  while (!heap_.empty()) {
    const HeapEntry top = heap_.top();
    heap_.pop();
    Cursor& c = cursors_[top.cursor];
    if (started && top.x > cur_x) {
      if (coverage > 0) {
        // Zero-mass but covered ranges keep a piece: the merged support is
        // exactly the union of the inputs' supports. The density clamp
        // absorbs residual negative rounding from the on/off deltas.
        pieces_.push_back(
            {cur_x, top.x, std::max(0.0, density) * (top.x - cur_x)});
      }
      cur_x = top.x;
    } else if (!started) {
      cur_x = top.x;
      started = true;
    }
    const HistogramModel::Piece& p = (*c.pieces)[c.index];
    if (!c.at_right) {
      c.active_density = p.Density();
      density += c.active_density;
      ++coverage;
      c.at_right = true;
      c.x = std::max(c.x, p.right);
      heap_.push({c.x, top.cursor});
    } else {
      density -= c.active_density;
      --coverage;
      ++c.index;
      if (c.index < c.pieces->size()) {
        c.at_right = false;
        // Clamp against the model's 1e-9 overlap tolerance so per-cursor
        // event positions stay monotone.
        c.x = std::max(c.x, (*c.pieces)[c.index].left);
        heap_.push({c.x, top.cursor});
      }
    }
  }
  DH_DCHECK(coverage == 0);
}

HistogramModel SnapshotMerger::Superimpose(
    const std::vector<HistogramModel>& models) {
  SweepInto(models);
  if (pieces_.empty()) return HistogramModel();
  std::vector<HistogramModel::Piece> pieces(pieces_);  // scratch stays warm
  return HistogramModel::FromSimpleBuckets(std::move(pieces));
}

HistogramModel SnapshotMerger::MergeAndReduce(
    const std::vector<HistogramModel>& models, std::int64_t buckets,
    ReduceMode) {
  if (buckets <= 0) return Superimpose(models);
  SweepInto(models);
  return ReducePieces(pieces_, buckets, &slices_);
}

HistogramModel Superimpose(const std::vector<HistogramModel>& models) {
  SnapshotMerger merger;
  return merger.Superimpose(models);
}

HistogramModel ReduceWithSsbm(const HistogramModel& model,
                              std::int64_t buckets) {
  std::vector<HistogramModel::Piece> slices;
  slices.reserve(model.NumPieces());
  return ReducePieces(model.pieces(), buckets, &slices);
}

HistogramModel BuildGlobalHistogram(const std::vector<Site>& sites,
                                    GlobalStrategy strategy,
                                    double memory_bytes) {
  DH_CHECK(!sites.empty());
  const std::int64_t buckets =
      BucketBudget(memory_bytes, BucketLayout::kBorderCount);
  switch (strategy) {
    case GlobalStrategy::kHistogramThenUnion: {
      std::vector<HistogramModel> locals;
      locals.reserve(sites.size());
      for (const Site& site : sites) {
        locals.push_back(site.BuildLocalHistogram(memory_bytes));
      }
      SnapshotMerger merger;
      return merger.MergeAndReduce(locals, buckets);
    }
    case GlobalStrategy::kUnionThenHistogram: {
      const FrequencyVector all = UnionData(sites);
      return BuildSsbm(all, buckets);
    }
  }
  DH_CHECK(false);
  return HistogramModel();
}

}  // namespace dynhist::distributed
