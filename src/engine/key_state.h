// Per-key engine state, hoisted to namespace scope so the reader fast
// path can name it: a KeyHandle (key_handle.h) is a stable pointer to one
// KeyState, and the engine's thread-local reader table (see
// ReleaseThreadLeases in histogram_engine.h) maps key names to KeyState
// pointers and validates its leased snapshots against KeyState::epoch.
// Everything here is owned and orchestrated by HistogramEngine — the
// struct is an implementation detail published only through the internal
// namespace.
// A key registers no metrics: the engine's collector reads these atomics
// (and the feedback-error histogram) at scrape time.
//
// Lifetime contract (what makes KeyHandle and the reader table safe):
// KeyStates live in a registry that never erases, each behind a
// unique_ptr, so a KeyState's address is stable from creation to engine
// destruction. A handle is therefore valid exactly as long as its engine.

#ifndef DYNHIST_ENGINE_KEY_STATE_H_
#define DYNHIST_ENGINE_KEY_STATE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/engine/engine_options.h"
#include "src/engine/shard.h"
#include "src/engine/snapshot.h"
#include "src/telemetry/log_histogram.h"

namespace dynhist::engine::internal {

/// The registry's key-name hash. Transparent, so a string_view lookup
/// builds no temporary std::string; the reader table indexes its slots
/// by the same hash (KeyState::name_hash).
struct KeyNameHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

/// One key's share of the EngineStats counters that the key itself keeps
/// (see the EngineStats ordering contract in histogram_engine.h). The
/// accept counts (inserts, deletes, feedbacks) are not here: the key's
/// shards keep them under their buffer locks (EngineShard::Accepted).
/// The counter table in histogram_engine.cc maps each cell to its
/// EngineStats field and exposition series — a new counter is one cell
/// here plus one table row there.
struct KeyCounters {
  std::atomic<std::uint64_t> queries{0};
  std::atomic<std::uint64_t> lease_hits{0};
  std::atomic<std::uint64_t> lease_misses{0};
  std::atomic<std::uint64_t> publishes{0};
  std::atomic<std::uint64_t> async_publishes{0};
  std::atomic<std::uint64_t> publish_queued{0};
  std::atomic<std::uint64_t> publish_coalesced{0};
  std::atomic<std::uint64_t> publish_skipped{0};
  std::atomic<std::uint64_t> publish_nanos{0};
  std::atomic<std::uint64_t> max_publish_nanos{0};
  std::atomic<std::uint64_t> queue_wait_nanos{0};
};

struct KeyState {
  KeyState(std::string key_name, const EngineOptions& options,
           const ShardTelemetry& shard_telemetry);

  /// The key, interned for the registry's lifetime: trace events
  /// reference its storage, and the collector labels the key's series
  /// with it.
  const std::string name;

  /// KeyNameHash of `name`, computed once: the reader table slot a
  /// handle's lease lives in.
  const std::size_t name_hash;

  /// The shard histogram kind this key was created with (the global
  /// EngineOptions::kind, or the KeyOptionOverrides::backend override at
  /// creation). Immutable: the shard histograms already exist.
  const ShardHistogramKind kind;

  std::vector<std::unique_ptr<EngineShard>> shards;

  /// Per-key |published estimate − actual| distribution, recorded at
  /// RecordFeedback time when telemetry is on (the convergence
  /// observable: how wrong the optimizer-visible snapshot was about each
  /// observed predicate). The engine's collector reads it at scrape time.
  telemetry::LogHistogram feedback_error{
      telemetry::LogBucketer::PerDecade(4)};

  KeyCounters counters;

  // Telemetry timestamps (offsets on the engine's trace clock, relaxed
  // — diagnostic): when this key's queued publish request was
  // enqueued (at most one is outstanding, so one slot suffices), and
  // when the key last published (0 = never), which drives the
  // staleness-seconds gauge.
  std::atomic<std::uint64_t> enqueued_at_ns{0};
  std::atomic<std::uint64_t> last_publish_ns{0};

  // Updates accepted for this key, and the value of that counter at the
  // last publication — their difference drives auto-publication.
  std::atomic<std::uint64_t> update_count{0};
  std::atomic<std::uint64_t> published_at{0};

  // Effective per-key options (global defaults, then SetKeyOptions
  // overrides). Atomics: writers consult them on every update while
  // SetKeyOptions stores concurrently.
  std::atomic<std::int64_t> snapshot_every;
  std::atomic<std::int64_t> merged_buckets;
  std::atomic<bool> async_publish;

  // Async publish state: `publish_pending` is true while a request for
  // this key sits in the queue — further cadence trips coalesce into it
  // and ticks skip the key (the worker publishes the key's newest state,
  // so only the newest trip matters), which keeps the queue at one entry
  // per key at most. `requested_at` is the highest update count a trip
  // or tick asked to publish; the async cadence measures from
  // max(published_at, requested_at) so a pending request suppresses
  // re-trips until new updates accumulate past it.
  std::atomic<bool> publish_pending{false};
  std::atomic<std::uint64_t> requested_at{0};

  // The published snapshot and its epoch. `published` starts at the
  // shared epoch-0 view (EmptyVersionedModel) and is never null. A
  // publication (under publish_mu) swaps the pointer and only then stores
  // the new epoch with release, so `epoch` never runs ahead of the
  // snapshot a reader can load: an acquire load of epoch e followed by a
  // load of `published` yields a snapshot of epoch >= e. The reader
  // table's leases use `epoch` as their validation stamp (a relaxed load
  // equal to the leased snapshot's epoch is a hit).
  std::mutex publish_mu;  // serializes merges of this key
  std::atomic<std::uint64_t> epoch{0};
  std::atomic<std::shared_ptr<const VersionedModel>> published{
      EmptyVersionedModel()};

  // Newest epoch any reader has leased (relaxed max, diagnostic):
  // `epoch - last_leased_epoch` is the per-key lease-staleness gauge — 0
  // while the reader fleet is current, >0 between a publish and the
  // first revalidation that observes it.
  std::atomic<std::uint64_t> last_leased_epoch{0};
};

}  // namespace dynhist::engine::internal

#endif  // DYNHIST_ENGINE_KEY_STATE_H_
