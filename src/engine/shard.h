// One ingest shard: a dynamic histogram behind a mutex, fed in batches.
//
// The shard is the engine's unit of write concurrency. Updates are pushed
// into a small buffer under a cheap buffer lock; when the buffer reaches
// the configured batch size, the pushing thread drains it into the
// histogram under the (much more expensive) histogram lock. Histogram
// maintenance — binary search, chi-square bookkeeping, occasional O(n)
// repartitions — is thus paid once per batch_size operations per lock
// acquisition, and threads updating different shards never contend at all.
//
// Ordering: the histogram lock is acquired while the buffer lock is still
// held, so batches are applied in exactly the order they were filled.
// Within a shard the applied operation sequence is therefore a
// linearization of the push order, which keeps insert-before-delete
// ordering for any single producer.

#ifndef DYNHIST_ENGINE_SHARD_H_
#define DYNHIST_ENGINE_SHARD_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/data/update_stream.h"
#include "src/engine/engine_options.h"
#include "src/histogram/histogram.h"
#include "src/histogram/model.h"
#include "src/telemetry/log_histogram.h"

namespace dynhist::engine {

/// Builds the dynamic histogram a shard maintains, per the options. DC and
/// DVO/DADO shards keep their configs' paper values of alpha_min (1e-6)
/// and sub_buckets (2).
std::unique_ptr<Histogram> MakeShardHistogram(const EngineOptions& options);

/// Where a shard records its ingest distributions (engine-owned
/// log-histograms shared by every shard; null pointers disable the
/// recording site). Both are batch-granular, so the per-operation cost
/// is amortized over batch_size.
struct ShardTelemetry {
  /// Operations per drained batch (how full batches run in practice).
  telemetry::LogHistogram* batch_ops = nullptr;
  /// Size of each coalesced data group (inserts plus deletes of one
  /// value) that actually collapsed duplicates (size >= 2) — the
  /// distribution of how much work coalescing saves; singleton groups are
  /// not recorded (they dominate uniform streams and would put a per-op
  /// record on the hot path). Feedback ops are never coalesced.
  telemetry::LogHistogram* coalesce_run = nullptr;
};

/// A mutex-protected dynamic histogram with a batched front buffer.
class EngineShard {
 public:
  explicit EngineShard(const EngineOptions& options,
                       const ShardTelemetry& telemetry = {});

  EngineShard(const EngineShard&) = delete;
  EngineShard& operator=(const EngineShard&) = delete;

  /// Enqueues one operation; drains the buffer into the histogram when it
  /// reaches the batch size. Thread-safe.
  void Push(const UpdateOp& op);

  /// Enqueues many operations under one buffer-lock round; drains once if
  /// the buffer reaches the batch size. Thread-safe.
  void PushMany(const std::vector<UpdateOp>& ops);

  /// Drains any buffered operations into the histogram. Thread-safe.
  void Flush();

  /// Flushes, then exports the shard histogram's model. Thread-safe.
  HistogramModel ExportModel();

  /// Flushes, then reports the histogram's live mass. Thread-safe.
  double TotalCount();

  /// Operations sitting in the front buffer, not yet applied to the
  /// histogram. Thread-safe (takes the buffer lock); diagnostic.
  std::size_t BufferedOps() const;

 private:
  // The one drain. Called with the buffer lock held: swaps the buffer
  // out, takes hist_mu_ before releasing the buffer lock (so batches
  // reach the histogram in fill order), applies the batch, and returns
  // still holding hist_mu_ so ExportModel/TotalCount read the histogram
  // under the same acquisition.
  std::unique_lock<std::mutex> Drain(std::unique_lock<std::mutex> buffer_lock);

  // Applies `batch` under hist_mu_ in batch_size_ chunks. Data runs
  // coalesce by value into weighted InsertN/DeleteN calls; feedback ops
  // apply one by one in arrival order. A single-op batch is therefore
  // InsertN(v, 1) / DeleteN(v, 1) / ApplyFeedback, the op-by-op replay.
  void ApplyLocked(const std::vector<UpdateOp>& batch);

  // Coalesces batch[begin, end) by value and applies the weighted groups
  // (inserts first per value, groups in first-occurrence order, via a
  // sorted index scratch — the batch itself is not reordered), so the
  // histogram pays one maintenance step per distinct value. Data ops only.
  void CoalesceAndApply(const std::vector<UpdateOp>& batch, std::size_t begin,
                        std::size_t end);

  const int batch_size_;
  const ShardTelemetry telemetry_;

  mutable std::mutex buffer_mu_;
  std::vector<UpdateOp> buffer_;  // guarded by buffer_mu_

  std::mutex hist_mu_;
  std::unique_ptr<Histogram> histogram_;   // guarded by hist_mu_

  // One coalesced group: `inserts`/`deletes` operations on `value`, first
  // seen at batch position `first`.
  struct Group {
    std::int64_t value = 0;
    std::uint32_t first = 0;
    std::int64_t inserts = 0;
    std::int64_t deletes = 0;
  };
  // Coalescing scratch, reused across batches (guarded by hist_mu_).
  std::vector<std::uint32_t> idx_scratch_;
  std::vector<Group> group_scratch_;
};

}  // namespace dynhist::engine

#endif  // DYNHIST_ENGINE_SHARD_H_
