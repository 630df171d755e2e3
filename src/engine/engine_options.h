// Configuration of the concurrent histogram engine.
//
// The engine (see histogram_engine.h) turns the single-threaded dynamic
// histograms of §3-§4 into server-side state that absorbs a concurrent
// update stream: updates hash across `shards` independently-locked
// histogram instances, per-shard buffers batch `batch_size` operations per
// histogram-lock acquisition, and every `snapshot_every` updates the shard
// models are merged (Superimpose + ReduceWithSsbm, the §8 machinery) into
// one immutable published snapshot that queries read lock-free. Every
// publication reduces over the merged pieces and compiles the result to
// its CompiledSnapshot arena; neither step is configurable.

#ifndef DYNHIST_ENGINE_ENGINE_OPTIONS_H_
#define DYNHIST_ENGINE_ENGINE_OPTIONS_H_

#include <cstdint>
#include <optional>

#include "src/histogram/st_feedback.h"

namespace dynhist::engine {

/// Which dynamic histogram each shard maintains. Restricted to the kinds
/// whose Delete() ignores `live_copies_before` (the engine does not track
/// exact per-value live counts; see Histogram::Delete).
enum class ShardHistogramKind {
  kDynamicCompressed,  ///< DC (§3)
  kDynamicVOpt,        ///< DVO (§4, squared deviations)
  kDynamicAdo,         ///< DADO (§4.1, absolute deviations; paper's best)
  kStFeedback,         ///< STF (query-feedback trained; st_feedback.h)
};

/// Tuning knobs of a HistogramEngine. The defaults suit a 5000-value
/// domain with ~10^5 live points (the paper's reference workload).
struct EngineOptions {
  /// Number of ingest shards per key. Updates hash (by value) to a shard;
  /// each shard owns one dynamic histogram behind its own mutex.
  int shards = 8;

  /// Operations buffered per shard before the shard's histogram lock is
  /// taken and the batch applied. A drained batch collapses duplicate
  /// values into weighted InsertN/DeleteN calls (inserts before deletes
  /// per value, groups in first-occurrence order), so batch cost tracks
  /// distinct values rather than operations — a large win for skewed
  /// streams. Weighted steps take a different bucket-border trajectory
  /// than a one-by-one replay (estimation quality and total mass do not
  /// change). 1 applies every update immediately, op by op: the faithful
  /// replay.
  int batch_size = 64;

  /// Updates (per key) between automatic snapshot publications. 0 disables
  /// automatic publication; snapshots then refresh only via
  /// RefreshSnapshot()/RefreshAll() or background ticks.
  std::int64_t snapshot_every = 8192;

  /// Histogram kind maintained by every shard.
  ShardHistogramKind kind = ShardHistogramKind::kDynamicAdo;

  /// Buckets per shard histogram (n in §3/§4).
  std::int64_t shard_buckets = 64;

  /// Bucket budget of the published merged snapshot: the superimposed
  /// composite of the shard models is re-partitioned to this many buckets
  /// with SSBM ("treat the histogram as a data set", §8). 0 publishes the
  /// lossless composite unreduced.
  std::int64_t merged_buckets = 64;

  /// STF only: learning rate, restructure thresholds, and initial domain
  /// of ST-FEEDBACK shards (see StFeedbackConfig). The `buckets` field is
  /// ignored — `shard_buckets` sizes every shard kind uniformly.
  StFeedbackConfig st_feedback{};

  /// When positive, merge worker 0 ticks at this cadence, enqueueing a
  /// publish request for every key (of either publish mode) with
  /// unpublished updates and none pending. Requires merge_workers >= 1;
  /// ticks stop with StopPublishWorkers(). 0 disables ticks.
  int background_interval_ms = 0;

  /// Publish off the writer thread: when a key's `snapshot_every` cadence
  /// fires, the writer enqueues a publish request and returns immediately;
  /// merge workers drain the queue. A key has at most one request queued
  /// (further trips coalesce into it: only the newest state matters), so
  /// the queue needs no bound. False (the default) publishes on the
  /// writer thread. RefreshSnapshot()/RefreshAll() always publish inline.
  bool async_publish = false;

  /// Merge workers draining the publish queue: the engine's one
  /// background executor, for async trips and ticks alike. Spawned on the
  /// first enqueue (at construction when ticking), so purely synchronous
  /// engines never start a thread. 0 is manual-pump mode: nothing drains
  /// the queue until PumpPublishes()/DrainPublishes() — the deterministic
  /// executor the test harness steps.
  int merge_workers = 1;

  /// Telemetry (src/telemetry/): latency/size distributions, the event
  /// trace ring (the newest 4096 publish/merge/flush events, dumped by
  /// HistogramEngine::WriteTraceJson), and queue-wait accounting. False
  /// skips every recording site — the distributions stay empty, the ring
  /// records nothing and queue-wait counters stay 0, the overhead bench's
  /// baseline mode — while the EngineStats counters (which predate
  /// telemetry and are the publish cadence's bookkeeping) are always
  /// maintained.
  bool enable_telemetry = true;
};

/// Per-key overrides layered over the engine-wide EngineOptions by
/// HistogramEngine::SetKeyOptions(). Absent fields keep the global value.
/// The publish-side knobs take effect immediately, on existing keys,
/// without touching shard state; `backend` is the one shard-layout knob
/// and applies at key creation only (the remaining layout knobs —
/// shards, batch_size, shard_buckets — always come from the global
/// options).
struct KeyOptionOverrides {
  /// Per-key shard histogram kind — the backend selector that lets
  /// feedback-trained (kStFeedback) keys coexist with data-driven
  /// DC/DVO/DADO keys in one engine. Unlike every other override this is
  /// a shard-layout knob, so it takes effect only at key creation:
  /// SetKeyOptions(unknown key, {.backend = ...}) creates the key with
  /// that kind; on an already-created key the field is ignored (the
  /// shard histograms already exist). EffectiveOptions reports the kind
  /// the key was actually created with.
  std::optional<ShardHistogramKind> backend{};

  /// Per-key publication cadence (0 disables auto-publish for the key).
  std::optional<std::int64_t> snapshot_every{};

  /// Per-key bucket budget of the published snapshot.
  std::optional<std::int64_t> merged_buckets{};

  /// Per-key async publish: hot keys can publish eagerly off-thread while
  /// cold keys stay on the cheap synchronous path, or vice versa.
  std::optional<bool> async_publish{};
};

}  // namespace dynhist::engine

#endif  // DYNHIST_ENGINE_ENGINE_OPTIONS_H_
