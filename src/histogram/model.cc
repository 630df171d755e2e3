#include "src/histogram/model.h"

#include <cstdio>
#include <utility>

#include "src/common/check.h"

namespace dynhist {

HistogramModel::HistogramModel(std::vector<Piece> pieces,
                               std::vector<BucketRef> buckets)
    : pieces_(std::move(pieces)), buckets_(std::move(buckets)) {
  // Summed in piece order, the order CompiledSnapshot accumulates its
  // prefix masses in, so the arena's total is bit-identical to this one.
  double acc = 0.0;
  for (std::size_t i = 0; i < pieces_.size(); ++i) {
    const Piece& p = pieces_[i];
    DH_CHECK(p.right > p.left);
    DH_CHECK(p.count >= 0.0);
    if (i > 0) DH_CHECK(p.left >= pieces_[i - 1].right - 1e-9);
    acc += p.count;
  }
  total_ = acc;
  // Buckets must tile the piece list exactly, in order.
  std::uint32_t next = 0;
  for (const BucketRef& b : buckets_) {
    DH_CHECK(b.first_piece == next);
    DH_CHECK(b.num_pieces >= 1);
    next += b.num_pieces;
  }
  DH_CHECK(next == pieces_.size());
}

HistogramModel HistogramModel::FromSimpleBuckets(std::vector<Piece> pieces) {
  std::vector<BucketRef> buckets(pieces.size());
  for (std::uint32_t i = 0; i < buckets.size(); ++i) {
    buckets[i] = {i, 1, false};
  }
  return HistogramModel(std::move(pieces), std::move(buckets));
}

double HistogramModel::MinBorder() const {
  DH_CHECK(!pieces_.empty());
  return pieces_.front().left;
}

double HistogramModel::MaxBorder() const {
  DH_CHECK(!pieces_.empty());
  return pieces_.back().right;
}

std::vector<HistogramModel::Piece> HistogramModel::BucketPieces(
    std::size_t b) const {
  DH_CHECK(b < buckets_.size());
  const BucketRef& ref = buckets_[b];
  return {pieces_.begin() + ref.first_piece,
          pieces_.begin() + ref.first_piece + ref.num_pieces};
}

double HistogramModel::BucketCount(std::size_t b) const {
  DH_CHECK(b < buckets_.size());
  const BucketRef& ref = buckets_[b];
  double sum = 0.0;
  for (std::uint32_t i = 0; i < ref.num_pieces; ++i) {
    sum += pieces_[ref.first_piece + i].count;
  }
  return sum;
}

std::string HistogramModel::DebugString() const {
  std::string out;
  char line[128];
  std::snprintf(line, sizeof(line), "HistogramModel: %zu buckets, total %g\n",
                buckets_.size(), total_);
  out += line;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const BucketRef& ref = buckets_[b];
    const Piece& first = pieces_[ref.first_piece];
    const Piece& last = pieces_[ref.first_piece + ref.num_pieces - 1];
    std::snprintf(line, sizeof(line), "  [%12.4f .. %12.4f) count=%-10.2f%s\n",
                  first.left, last.right, BucketCount(b),
                  ref.singular ? " (singular)" : "");
    out += line;
  }
  return out;
}

}  // namespace dynhist
