#include "src/histogram/ssbm.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <tuple>

#include "src/common/check.h"
#include "src/histogram/static_common.h"

namespace dynhist {

namespace {

using Slice = HistogramModel::Piece;

// Live bucket state during merging, over piecewise-uniform input slices (a
// distinct integer value is the width-1 slice [v, v+1)). Extents are *data*
// extents [first slice left, last slice right); the gap between two buckets
// joins the merged bucket's extent when they merge (its zero density then
// counts toward the deviation, per Eq. 3/5 with j over all domain values).
// `sum_dsq` is the integral of the squared density over the covered slices,
// which for width-1 slices is exactly the paper's sum of squared
// frequencies — so unit-slice input reproduces the per-value algorithm bit
// for bit. The exported model uses the convention of ModelFromPieceSlices.
struct MergeBucket {
  std::size_t first_entry = 0;
  std::size_t last_entry = 0;
  double left = 0.0;    // left border of the first slice
  double right = 0.0;   // right border of the last slice
  double total = 0.0;   // sum of slice counts
  double sum_dsq = 0.0; // integral of density^2 over the covered slices
  std::int64_t prev = -1;
  std::int64_t next = -1;
  std::uint32_t version = 0;
  bool alive = true;
};

double SquaredDeviation(const MergeBucket& b) {
  const double width = b.right - b.left;
  return std::max(0.0, b.sum_dsq - b.total * b.total / width);
}

// Absolute deviation requires the individual densities; O(span).
double AbsoluteDeviation(const MergeBucket& b,
                         const std::vector<Slice>& slices) {
  const double width = b.right - b.left;
  const double avg = b.total / width;
  double dev = 0.0;
  double covered = 0.0;
  for (std::size_t i = b.first_entry; i <= b.last_entry; ++i) {
    const double w = slices[i].Width();
    dev += w * std::fabs(slices[i].count / w - avg);
    covered += w;
  }
  dev += (width - covered) * avg;  // gap zeros deviate by avg each
  return dev;
}

double Deviation(const MergeBucket& b, const std::vector<Slice>& slices,
                 DeviationPolicy policy) {
  return policy == DeviationPolicy::kSquared ? SquaredDeviation(b)
                                             : AbsoluteDeviation(b, slices);
}

MergeBucket Merged(const MergeBucket& a, const MergeBucket& b) {
  DH_DCHECK(a.last_entry + 1 == b.first_entry);
  MergeBucket m;
  m.first_entry = a.first_entry;
  m.last_entry = b.last_entry;
  m.left = a.left;
  m.right = b.right;
  m.total = a.total + b.total;
  m.sum_dsq = a.sum_dsq + b.sum_dsq;
  return m;
}

bool IsSingular(const std::vector<Slice>& slices, const MergeBucket& b) {
  return b.first_entry == b.last_entry &&
         slices[b.first_entry].Width() == 1.0;
}

}  // namespace

HistogramModel BuildSsbm(const std::vector<Slice>& slices,
                         std::int64_t buckets, const SsbmOptions& options) {
  DH_CHECK(buckets >= 1);
  if (slices.empty()) return HistogramModel();
  const std::size_t d = slices.size();
  for (std::size_t i = 0; i < d; ++i) {
    DH_CHECK(slices[i].right > slices[i].left && slices[i].count >= 0.0);
    // Same overlap tolerance as the HistogramModel constructor.
    if (i > 0) DH_CHECK(slices[i].left >= slices[i - 1].right - 1e-9);
  }
  if (static_cast<std::size_t>(buckets) >= d) {
    std::vector<internal::BucketSlice> out(d);
    for (std::size_t i = 0; i < d; ++i) {
      out[i] = {i, i, /*singular=*/slices[i].Width() == 1.0};
    }
    return internal::ModelFromPieceSlices(slices, out);
  }

  // The exact histogram: one bucket per input slice (rho = 0).
  std::vector<MergeBucket> bucket(d);
  for (std::size_t i = 0; i < d; ++i) {
    bucket[i].first_entry = bucket[i].last_entry = i;
    bucket[i].left = slices[i].left;
    bucket[i].right = slices[i].right;
    bucket[i].total = slices[i].count;
    bucket[i].sum_dsq = slices[i].count * slices[i].count / slices[i].Width();
    bucket[i].prev = static_cast<std::int64_t>(i) - 1;
    bucket[i].next = (i + 1 < d) ? static_cast<std::int64_t>(i) + 1 : -1;
  }

  // Merging bucket `left_id` with its right neighbour, as of both buckets'
  // versions.
  struct Candidate {
    double key;
    std::size_t left_id;
    std::uint32_t left_version;
    std::uint32_t right_version;
    // The merge order: smallest key first, ties to the leftmost pair. A
    // merge folds the right bucket into the left one, so ids increase left
    // to right and this is the pair the left-to-right scan picks.
    bool operator>(const Candidate& other) const {
      return std::tie(key, left_id) > std::tie(other.key, other.left_id);
    }
  };
  const auto candidate = [&](std::size_t left_id) -> Candidate {
    const MergeBucket& a = bucket[left_id];
    const MergeBucket& b = bucket[static_cast<std::size_t>(a.next)];
    double key = Deviation(Merged(a, b), slices, options.policy);
    if (options.merge_key == SsbmOptions::MergeKey::kDeviationIncrease) {
      key = key - Deviation(a, slices, options.policy) -
            Deviation(b, slices, options.policy);
    }
    return {key, left_id, a.version, b.version};
  };

  // Lazy min-heap over the adjacent pairs; an entry goes stale when either
  // bucket merges again (version mismatch) and is discarded on pop.
  std::priority_queue<Candidate, std::vector<Candidate>, std::greater<>> heap;
  if (!options.use_quadratic_scan) {
    for (std::size_t i = 0; i + 1 < d; ++i) heap.push(candidate(i));
  }

  // The left bucket of the next pair to merge: the first Candidate in merge
  // order among the surviving adjacent pairs.
  const auto next_pair = [&]() -> std::size_t {
    if (options.use_quadratic_scan) {
      // The paper's cost model: every merge rescans all surviving adjacent
      // pairs (O(D) per merge, O(D^2) total).
      Candidate best = candidate(0);
      for (std::int64_t i = bucket[0].next;
           bucket[static_cast<std::size_t>(i)].next >= 0;
           i = bucket[static_cast<std::size_t>(i)].next) {
        const Candidate c = candidate(static_cast<std::size_t>(i));
        if (best > c) best = c;
      }
      return best.left_id;
    }
    while (true) {
      DH_CHECK(!heap.empty());
      const Candidate c = heap.top();
      heap.pop();
      const MergeBucket& a = bucket[c.left_id];
      if (a.alive && a.version == c.left_version && a.next >= 0 &&
          bucket[static_cast<std::size_t>(a.next)].version ==
              c.right_version) {
        return c.left_id;
      }
    }
  };

  std::size_t live = d;
  while (live > static_cast<std::size_t>(buckets)) {
    const std::size_t left_id = next_pair();
    MergeBucket& a = bucket[left_id];
    MergeBucket& b = bucket[static_cast<std::size_t>(a.next)];
    MergeBucket m = Merged(a, b);
    m.prev = a.prev;
    m.next = b.next;
    m.version = a.version + 1;
    b.alive = false;
    a = m;
    if (a.next >= 0) {
      bucket[static_cast<std::size_t>(a.next)].prev =
          static_cast<std::int64_t>(left_id);
    }
    --live;
    if (!options.use_quadratic_scan) {
      if (a.prev >= 0) heap.push(candidate(static_cast<std::size_t>(a.prev)));
      if (a.next >= 0) heap.push(candidate(left_id));
    }
  }

  // Export the surviving buckets in value order. The head is always bucket
  // 0: merges fold right buckets into left ones.
  std::vector<internal::BucketSlice> out;
  out.reserve(live);
  for (std::int64_t i = 0; i >= 0;
       i = bucket[static_cast<std::size_t>(i)].next) {
    const MergeBucket& b = bucket[static_cast<std::size_t>(i)];
    DH_CHECK(b.alive);
    out.push_back({b.first_entry, b.last_entry, IsSingular(slices, b)});
  }
  DH_CHECK(out.size() == static_cast<std::size_t>(buckets));
  return internal::ModelFromPieceSlices(slices, out);
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
