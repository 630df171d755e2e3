// Immutable engine snapshots: the read side of the concurrent engine.
//
// A snapshot is one compiled arena (CompiledSnapshot: contiguous border /
// prefix-CDF arrays that answer EstimateRange with two branch-free
// lower_bound lookups), the epoch at which it was published, and the
// update watermark it covers. The arena is the only form a published
// snapshot holds — the implicit epoch-0 empty view included — and the
// library's one estimator, so every read of a snapshot is an arena read.
// model() rebuilds the pieces as export data for consumers that need
// them (KS scoring, the benches' layer ladders, tests); it answers no
// queries. The engine publishes snapshots by atomically swapping a
// shared_ptr, so a reader's EngineSnapshot is a stable view: it stays
// valid and unchanged for as long as the reader holds it, no matter how
// many updates or newer publications happen concurrently.
//
// Estimation here touches no locks and allocates nothing: queries read
// the arena directly, with no per-call estimator object to construct.
// Selectivity fractions and open ranges are SelectivityEstimator's job;
// wrap compiled() in one.

#ifndef DYNHIST_ENGINE_SNAPSHOT_H_
#define DYNHIST_ENGINE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <utility>

#include "src/histogram/compiled_snapshot.h"
#include "src/histogram/model.h"

namespace dynhist::engine {

/// A published model's compiled arena together with its publication
/// epoch. Epoch 0 is the implicit empty snapshot a key has before its
/// first publication.
struct VersionedModel {
  /// Compiles `m`; the model itself is not kept.
  VersionedModel(const HistogramModel& m, std::uint64_t e, std::uint64_t w)
      : compiled(CompiledSnapshot::Compile(m)), epoch(e), watermark(w) {}

  /// The published model compiled to its flat prefix-CDF arena.
  CompiledSnapshot compiled;

  std::uint64_t epoch = 0;

  /// Updates (per the key's accepted-update counter) this publication
  /// covers: the counter value the publisher observed before merging.
  /// Lets readers — and the async-publish tests — tell which ingest
  /// prefix a snapshot reflects; coalesced publish requests all land in
  /// one publication whose watermark is the newest of them.
  std::uint64_t watermark = 0;
};

/// The epoch-0 view every unknown or never-published key reads: one
/// process-wide empty arena, so handing it out allocates nothing.
inline const std::shared_ptr<const VersionedModel>& EmptyVersionedModel() {
  static const std::shared_ptr<const VersionedModel> empty =
      std::make_shared<const VersionedModel>(HistogramModel(), 0, 0);
  return empty;
}

/// Shared, immutable view of one key's histogram at a publication epoch.
/// Cheap to copy (one shared_ptr); safe to use from any thread.
class EngineSnapshot {
 public:
  /// An empty epoch-0 snapshot (zero mass everywhere).
  EngineSnapshot() : state_(EmptyVersionedModel()) {}

  explicit EngineSnapshot(std::shared_ptr<const VersionedModel> state)
      : state_(std::move(state)) {}

  /// Publication epoch; increments by 1 per publication of the key.
  std::uint64_t epoch() const { return state_->epoch; }

  /// Accepted-update count this snapshot covers (see VersionedModel).
  std::uint64_t watermark() const { return state_->watermark; }

  /// The published pieces as a model, rebuilt from the arena: one
  /// single-piece bucket per piece, {left, right, count} bit-identical to
  /// what the publisher merged (its bucket grouping is flattened). O(pieces)
  /// and allocating — for KS scoring and tests, not the query path.
  HistogramModel model() const { return state_->compiled.ToModel(); }

  /// The flat query arena compiled at publish time (empty for the
  /// epoch-0 view). Exposed for the parity tests and as the distributed
  /// tier's zero-copy wire payload.
  const CompiledSnapshot& compiled() const { return state_->compiled; }

  /// Total mass the snapshot believes the key holds; bit-identical to
  /// model().TotalCount().
  double TotalCount() const { return state_->compiled.TotalCount(); }

  /// Estimated number of tuples with lo <= A <= hi.
  double EstimateRange(std::int64_t lo, std::int64_t hi) const {
    return state_->compiled.EstimateRange(lo, hi);
  }

  /// Estimated number of tuples with A = v.
  double EstimateEquals(std::int64_t v) const {
    return EstimateRange(v, v);
  }

 private:
  std::shared_ptr<const VersionedModel> state_;
};

}  // namespace dynhist::engine

#endif  // DYNHIST_ENGINE_SNAPSHOT_H_
