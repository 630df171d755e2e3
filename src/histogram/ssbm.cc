#include "src/histogram/ssbm.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/check.h"

namespace dynhist {

namespace {

using Slice = HistogramModel::Piece;

// "No neighbour" in MergeBucket::prev/next.
constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

// A bucket, live or candidate, over input slices [first, end): its data
// extent, count and integral of squared density. The exported model uses
// the convention of ModelFromPieceSlices.
struct Span {
  double left = 0.0;
  double right = 0.0;
  double total = 0.0;
  double sum_dsq = 0.0;
  std::size_t first = 0;
  std::size_t end = 0;
};

double SquaredDeviation(const Span& s) {
  const double width = s.right - s.left;
  return std::max(0.0, s.sum_dsq - s.total * s.total / width);
}

// Absolute deviation requires the individual densities; O(span).
double AbsoluteDeviation(const Span& s, const std::vector<Slice>& slices) {
  const double width = s.right - s.left;
  const double avg = s.total / width;
  double dev = 0.0;
  double covered = 0.0;
  for (std::size_t i = s.first; i < s.end; ++i) {
    const double w = slices[i].Width();
    dev += w * std::fabs(slices[i].count / w - avg);
    covered += w;
  }
  dev += (width - covered) * avg;  // gap zeros deviate by avg each
  return dev;
}

double Deviation(const Span& s, const std::vector<Slice>& slices,
                 DeviationPolicy policy) {
  return policy == DeviationPolicy::kSquared ? SquaredDeviation(s)
                                             : AbsoluteDeviation(s, slices);
}

}  // namespace

void SsbmBuilder::Place(std::size_t i, const PairEntry& e) {
  heap_[i] = e;
  pos_[e.left_id] = static_cast<std::uint32_t>(i);
}

void SsbmBuilder::SiftUp(std::size_t i) {
  const PairEntry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!(e < heap_[parent])) break;
    Place(i, heap_[parent]);
    i = parent;
  }
  Place(i, e);
}

void SsbmBuilder::SiftDown(std::size_t i) {
  const PairEntry e = heap_[i];
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_[child + 1] < heap_[child]) ++child;
    if (!(heap_[child] < e)) break;
    Place(i, heap_[child]);
    i = child;
  }
  Place(i, e);
}

// Restores the heap order after the key at position i changed either way
// (a kDeviationIncrease key can fall when its bucket grows).
void SsbmBuilder::Fix(std::size_t i) {
  if (i > 0 && heap_[i] < heap_[(i - 1) / 2]) {
    SiftUp(i);
  } else {
    SiftDown(i);
  }
}

void SsbmBuilder::Erase(std::uint32_t left_id) {
  const std::size_t i = pos_[left_id];
  const PairEntry last = heap_.back();
  heap_.pop_back();
  if (i < heap_.size()) {
    Place(i, last);
    Fix(i);
  }
}

HistogramModel SsbmBuilder::Build(const std::vector<Slice>& slices,
                                  std::int64_t buckets,
                                  const SsbmOptions& options) {
  DH_CHECK(buckets >= 1);
  if (slices.empty()) return HistogramModel();
  const std::size_t d = slices.size();
  DH_CHECK(d < kNone);
  for (std::size_t i = 0; i < d; ++i) {
    DH_CHECK(slices[i].right > slices[i].left && slices[i].count >= 0.0);
    // Same overlap tolerance as the HistogramModel constructor.
    if (i > 0) DH_CHECK(slices[i].left >= slices[i - 1].right - 1e-9);
  }
  out_.clear();
  out_.reserve(std::min(d, static_cast<std::size_t>(buckets)));
  if (static_cast<std::size_t>(buckets) >= d) {
    for (std::size_t i = 0; i < d; ++i) {
      out_.push_back({i, i, /*singular=*/slices[i].Width() == 1.0});
    }
    return internal::ModelFromPieceSlices(slices, out_);
  }

  // The exact histogram: one bucket per input slice (rho = 0).
  bucket_.resize(d);
  for (std::size_t i = 0; i < d; ++i) {
    MergeBucket& b = bucket_[i];
    b.left = slices[i].left;
    b.right = slices[i].right;
    b.total = slices[i].count;
    b.sum_dsq = slices[i].count * slices[i].count / slices[i].Width();
    b.prev = i > 0 ? static_cast<std::uint32_t>(i - 1) : kNone;
    b.next = i + 1 < d ? static_cast<std::uint32_t>(i + 1) : kNone;
  }

  const auto span = [&](std::uint32_t id) -> Span {
    const MergeBucket& b = bucket_[id];
    return {b.left, b.right, b.total, b.sum_dsq, id,
            b.next == kNone ? d : b.next};
  };
  // Merging bucket `left_id` with its right neighbour.
  const auto pair_entry = [&](std::uint32_t left_id) -> PairEntry {
    const Span a = span(left_id);
    const Span b = span(bucket_[left_id].next);
    const Span merged = {a.left,    b.right,  a.total + b.total,
                         a.sum_dsq + b.sum_dsq, a.first, b.end};
    double key = Deviation(merged, slices, options.policy);
    if (options.merge_key == SsbmOptions::MergeKey::kDeviationIncrease) {
      key = key - Deviation(a, slices, options.policy) -
            Deviation(b, slices, options.policy);
    }
    return {key, left_id};
  };

  // Indexed min-heap over the adjacent pairs, keyed by left bucket id:
  // exactly the live pairs, each with its current key, so the top is the
  // next pair to merge.
  heap_.clear();
  if (!options.use_quadratic_scan) {
    heap_.reserve(d - 1);
    pos_.resize(d - 1);
    for (std::uint32_t i = 0; i + 1 < d; ++i) {
      heap_.push_back(pair_entry(i));
      pos_[i] = i;
    }
    for (std::size_t i = heap_.size() / 2; i-- > 0;) SiftDown(i);
  }

  // The left bucket of the next pair to merge: the first pair in merge
  // order among the surviving adjacent pairs.
  const auto next_pair = [&]() -> std::uint32_t {
    if (options.use_quadratic_scan) {
      // The paper's cost model: every merge rescans all surviving adjacent
      // pairs (O(D) per merge, O(D^2) total).
      PairEntry best = pair_entry(0);
      for (std::uint32_t i = bucket_[0].next; bucket_[i].next != kNone;
           i = bucket_[i].next) {
        const PairEntry c = pair_entry(i);
        if (c < best) best = c;
      }
      return best.left_id;
    }
    return heap_.front().left_id;
  };

  std::size_t live = d;
  while (live > static_cast<std::size_t>(buckets)) {
    const std::uint32_t left_id = next_pair();
    MergeBucket& a = bucket_[left_id];
    const std::uint32_t right_id = a.next;
    const MergeBucket& b = bucket_[right_id];
    a.right = b.right;
    a.total += b.total;
    a.sum_dsq += b.sum_dsq;
    a.next = b.next;
    if (a.next != kNone) bucket_[a.next].prev = left_id;
    --live;
    if (!options.use_quadratic_scan) {
      // The right bucket's pair is gone; the merged pair (still the top:
      // nothing precedes the minimum) and its left neighbour get new keys
      // in place.
      DH_DCHECK(heap_.front().left_id == left_id);
      if (a.next != kNone) {
        Erase(right_id);
        heap_.front() = pair_entry(left_id);
        SiftDown(0);
      } else {
        Erase(left_id);
      }
      if (a.prev != kNone) {
        heap_[pos_[a.prev]] = pair_entry(a.prev);
        Fix(pos_[a.prev]);
      }
    }
  }

  // Export the surviving buckets in value order. The head is always bucket
  // 0: merges fold right buckets into left ones.
  for (std::uint32_t i = 0; i != kNone; i = bucket_[i].next) {
    const std::size_t last = bucket_[i].next == kNone ? d - 1
                                                      : bucket_[i].next - 1;
    out_.push_back({i, last, i == last && slices[i].Width() == 1.0});
  }
  DH_CHECK(out_.size() == static_cast<std::size_t>(buckets));
  return internal::ModelFromPieceSlices(slices, out_);
}

HistogramModel BuildSsbm(const std::vector<Slice>& slices,
                         std::int64_t buckets, const SsbmOptions& options) {
  SsbmBuilder builder;
  return builder.Build(slices, buckets, options);
}

HistogramModel BuildSsbm(const std::vector<ValueFreq>& entries,
                         std::int64_t buckets, const SsbmOptions& options) {
  std::vector<Slice> slices;
  slices.reserve(entries.size());
  for (const ValueFreq& e : entries) {
    const double left = static_cast<double>(e.value);
    slices.push_back({left, left + 1.0, e.freq});
  }
  return BuildSsbm(slices, buckets, options);
}

HistogramModel BuildSsbm(const FrequencyVector& data, std::int64_t buckets,
                         const SsbmOptions& options) {
  return BuildSsbm(data.NonZeroEntries(), buckets, options);
}

}  // namespace dynhist
