#include "src/engine/shard.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/histogram/dynamic_compressed.h"
#include "src/histogram/dynamic_vopt.h"
#include "src/histogram/st_feedback.h"

namespace dynhist::engine {

std::unique_ptr<Histogram> MakeShardHistogram(const EngineOptions& options) {
  DH_CHECK(options.shard_buckets >= 1);
  switch (options.kind) {
    case ShardHistogramKind::kDynamicCompressed:
      return std::make_unique<DynamicCompressedHistogram>(
          DynamicCompressedConfig{.buckets = options.shard_buckets});
    case ShardHistogramKind::kDynamicVOpt:
      return std::make_unique<DynamicVOptHistogram>(
          DynamicVOptConfig{.buckets = options.shard_buckets,
                            .policy = DeviationPolicy::kSquared});
    case ShardHistogramKind::kDynamicAdo:
      return std::make_unique<DynamicVOptHistogram>(
          DynamicVOptConfig{.buckets = options.shard_buckets,
                            .policy = DeviationPolicy::kAbsolute});
    case ShardHistogramKind::kStFeedback: {
      StFeedbackConfig config = options.st_feedback;
      config.buckets = options.shard_buckets;
      return std::make_unique<StFeedbackHistogram>(config);
    }
  }
  DH_CHECK(false);
  return nullptr;
}

EngineShard::EngineShard(const EngineOptions& options,
                         const ShardTelemetry& telemetry)
    : batch_size_(options.batch_size < 1 ? 1 : options.batch_size),
      telemetry_(telemetry),
      histogram_(MakeShardHistogram(options)) {
  buffer_.reserve(static_cast<std::size_t>(batch_size_));
}

void EngineShard::CountLocked(const UpdateOp& op) {
  switch (op.kind) {
    case UpdateOp::Kind::kInsert:
      ++accepted_.inserts;
      break;
    case UpdateOp::Kind::kDelete:
      ++accepted_.deletes;
      break;
    case UpdateOp::Kind::kFeedback:
      ++accepted_.feedbacks;
      break;
  }
}

void EngineShard::Push(const UpdateOp& op, bool counted) {
  std::unique_lock<std::mutex> buffer_lock(buffer_mu_);
  buffer_.push_back(op);
  if (counted) CountLocked(op);
  if (buffer_.size() < static_cast<std::size_t>(batch_size_)) return;
  Drain(std::move(buffer_lock));
}

void EngineShard::PushMany(const std::vector<UpdateOp>& ops) {
  if (ops.empty()) return;
  std::unique_lock<std::mutex> buffer_lock(buffer_mu_);
  buffer_.insert(buffer_.end(), ops.begin(), ops.end());
  for (const UpdateOp& op : ops) CountLocked(op);
  if (buffer_.size() < static_cast<std::size_t>(batch_size_)) return;
  Drain(std::move(buffer_lock));
}

void EngineShard::Flush() { Drain(std::unique_lock<std::mutex>(buffer_mu_)); }

HistogramModel EngineShard::ExportModel() {
  const std::unique_lock<std::mutex> hist_lock =
      Drain(std::unique_lock<std::mutex>(buffer_mu_));
  return histogram_->Model();
}

double EngineShard::TotalCount() {
  const std::unique_lock<std::mutex> hist_lock =
      Drain(std::unique_lock<std::mutex>(buffer_mu_));
  return histogram_->TotalCount();
}

std::size_t EngineShard::BufferedOps() const {
  std::lock_guard<std::mutex> buffer_lock(buffer_mu_);
  return buffer_.size();
}

EngineShard::AcceptCounts EngineShard::Accepted() const {
  std::lock_guard<std::mutex> buffer_lock(buffer_mu_);
  return accepted_;
}

std::unique_lock<std::mutex> EngineShard::Drain(
    std::unique_lock<std::mutex> buffer_lock) {
  // A full buffer means writers are pushing: hand it fresh storage for
  // the next batch so it refills without regrowing. A partial drain
  // (Flush, a publish export) leaves it none, so idle shards hold no
  // storage: reserving on every drain would pin a buffer on every shard
  // of every key, which a many-key engine pays for in resident memory.
  std::vector<UpdateOp> batch;
  if (buffer_.size() >= static_cast<std::size_t>(batch_size_)) {
    batch.reserve(static_cast<std::size_t>(batch_size_));
  }
  buffer_.swap(batch);
  // Take the histogram lock *before* releasing the buffer lock so batches
  // reach the histogram in fill order, then apply outside the buffer lock
  // so other producers can refill immediately.
  std::unique_lock<std::mutex> hist_lock(hist_mu_);
  buffer_lock.unlock();
  if (!batch.empty()) ApplyLocked(batch);
  return hist_lock;
}

void EngineShard::ApplyLocked(const std::vector<UpdateOp>& batch) {
  if (telemetry_.batch_ops != nullptr) {
    telemetry_.batch_ops->Record(batch.size());
  }
  // Coalesce in batch_size_-bounded chunks: Push-path batches are one
  // chunk; an oversized PushMany/Flush drain is split so the histogram
  // still adapts (repartitions) at the configured cadence instead of
  // absorbing the whole drain as a handful of giant weighted steps.
  const auto chunk = static_cast<std::size_t>(batch_size_);
  for (std::size_t begin = 0; begin < batch.size(); begin += chunk) {
    const std::size_t end = std::min(batch.size(), begin + chunk);
    // Feedback ops must not enter the value-sorted data coalesce: each
    // maximal run of data ops coalesces on its own, and feedback applies
    // one observation at a time between them, in arrival order (the
    // feedback update rule reads the frequencies data ops write, and is
    // not commutative across predicates).
    std::size_t seg = begin;
    while (seg < end) {
      const UpdateOp& op = batch[seg];
      if (op.kind == UpdateOp::Kind::kFeedback) {
        histogram_->ApplyFeedback(op.value, op.hi, op.actual);
        ++seg;
        continue;
      }
      std::size_t stop = seg + 1;
      while (stop < end && batch[stop].kind != UpdateOp::Kind::kFeedback) {
        ++stop;
      }
      CoalesceAndApply(batch, seg, stop);
      seg = stop;
    }
  }
}

void EngineShard::CoalesceAndApply(const std::vector<UpdateOp>& batch,
                                   std::size_t begin, std::size_t end) {
  // Collapse duplicate values into one weighted insert plus one weighted
  // delete, but apply the groups in first-occurrence order: a value-sorted
  // apply order would turn every batch into a sorted-insertion workload
  // (the paper's hardest update pattern), while first-occurrence order
  // keeps the stream's arrival shape. Applying a value's inserts before
  // its deletes preserves the per-producer insert-before-delete ordering
  // the engine guarantees per value (cross-value order inside a batch is
  // not observable through the histogram's value-independent maintenance).
  idx_scratch_.clear();
  for (std::size_t i = begin; i < end; ++i) {
    idx_scratch_.push_back(static_cast<std::uint32_t>(i));
  }
  std::sort(idx_scratch_.begin(), idx_scratch_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (batch[a].value != batch[b].value) {
                return batch[a].value < batch[b].value;
              }
              return a < b;
            });
  group_scratch_.clear();
  std::size_t i = 0;
  while (i < idx_scratch_.size()) {
    const std::int64_t value = batch[idx_scratch_[i]].value;
    Group group{value, idx_scratch_[i], 0, 0};
    for (; i < idx_scratch_.size() && batch[idx_scratch_[i]].value == value;
         ++i) {
      if (batch[idx_scratch_[i]].kind == UpdateOp::Kind::kInsert) {
        ++group.inserts;
      } else {
        ++group.deletes;
      }
    }
    group_scratch_.push_back(group);
  }
  std::sort(group_scratch_.begin(), group_scratch_.end(),
            [](const Group& a, const Group& b) { return a.first < b.first; });
  for (const Group& g : group_scratch_) {
    const std::int64_t run = g.inserts + g.deletes;
    if (run >= 2 && telemetry_.coalesce_run != nullptr) {
      telemetry_.coalesce_run->Record(static_cast<std::uint64_t>(run));
    }
    if (g.inserts > 0) histogram_->InsertN(g.value, g.inserts);
    if (g.deletes > 0) histogram_->DeleteN(g.value, g.deletes);
  }
}

}  // namespace dynhist::engine
