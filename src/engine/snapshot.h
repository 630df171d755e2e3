// Immutable engine snapshots: the read side of the concurrent engine.
//
// A snapshot is a HistogramModel, the epoch at which it was published,
// and the model's CompiledSnapshot arena: contiguous border / prefix-CDF
// arrays that answer EstimateRange with two branch-free lower_bound
// lookups. Every snapshot carries its arena — the implicit epoch-0 empty
// view included — so the arena is the one read path; the model stays
// for consumers that need pieces (merging, KS scoring). The engine
// publishes snapshots by atomically swapping a shared_ptr, so a reader's
// EngineSnapshot is a stable view: it stays valid and unchanged for as
// long as the reader holds it, no matter how many updates or newer
// publications happen concurrently.
//
// Estimation here touches no locks and allocates nothing: queries read
// the arena directly, with no per-call estimator object to construct.

#ifndef DYNHIST_ENGINE_SNAPSHOT_H_
#define DYNHIST_ENGINE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <utility>

#include "src/histogram/compiled_snapshot.h"
#include "src/histogram/model.h"

namespace dynhist::engine {

/// A published model together with its publication epoch and its
/// compiled arena. Epoch 0 is the implicit empty snapshot a key has
/// before its first publication.
struct VersionedModel {
  /// Compiles `m` into `compiled`: a VersionedModel cannot exist without
  /// its arena, so readers never branch on whether one is attached.
  VersionedModel(HistogramModel m, std::uint64_t e, std::uint64_t w)
      : model(std::move(m)),
        epoch(e),
        watermark(w),
        compiled(CompiledSnapshot::Compile(model)) {}

  HistogramModel model;
  std::uint64_t epoch = 0;

  /// Updates (per the key's accepted-update counter) this publication
  /// covers: the counter value the publisher observed before merging.
  /// Lets readers — and the async-publish tests — tell which ingest
  /// prefix a snapshot reflects; coalesced publish requests all land in
  /// one publication whose watermark is the newest of them.
  std::uint64_t watermark = 0;

  /// `model` compiled to its flat prefix-CDF arena; answers are
  /// bit-identical to the model's by the CompiledSnapshot parity
  /// contract.
  CompiledSnapshot compiled;
};

/// The epoch-0 view every unknown or never-published key reads: one
/// process-wide empty model and arena, so handing it out allocates
/// nothing.
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

  /// The underlying immutable model.
  const HistogramModel& model() const { return state_->model; }

  /// The flat query arena compiled at publish time (empty for the
  /// epoch-0 view). Exposed for the parity tests and as the distributed
  /// tier's zero-copy wire payload.
  const CompiledSnapshot& compiled() const { return state_->compiled; }

  /// Total mass the snapshot believes the key holds.
  double TotalCount() const { return state_->model.TotalCount(); }

  /// Estimated number of tuples with lo <= A <= hi.
  double EstimateRange(std::int64_t lo, std::int64_t hi) const {
    return state_->compiled.EstimateRange(lo, hi);
  }

  /// Estimated number of tuples with A = v.
  double EstimateEquals(std::int64_t v) const {
    return EstimateRange(v, v);
  }

  /// The above as result fractions of the relation.
  double SelectivityRange(std::int64_t lo, std::int64_t hi) const {
    return Fraction(EstimateRange(lo, hi));
  }
  double SelectivityEquals(std::int64_t v) const {
    return Fraction(EstimateRange(v, v));
  }

 private:
  double Fraction(double cardinality) const {
    const double total = state_->model.TotalCount();
    return total > 0.0 ? cardinality / total : 0.0;
  }

  std::shared_ptr<const VersionedModel> state_;
};

}  // namespace dynhist::engine

#endif  // DYNHIST_ENGINE_SNAPSHOT_H_
