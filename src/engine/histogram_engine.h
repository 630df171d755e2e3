// Concurrent histogram engine: sharded ingest, epoch snapshots, and a
// thread-safe query path.
//
// The paper's dynamic histograms exist so a live DBMS can keep selectivity
// estimates fresh under its insert/delete stream (§1); this engine is the
// server-side packaging of that idea. It maintains a registry of keyed
// histograms (one per attribute, e.g. "orders.amount") and makes each safe
// under concurrent writers and readers:
//
//   writers ──hash(value)──▶ shard buffers ──batch──▶ per-shard dynamic
//   histograms (DC/DVO/DADO behind per-shard mutexes)
//                                   │  every snapshot_every updates, on
//                                   ▼  demand, or at a background tick
//   Superimpose(shard models) ─▶ ReduceWithSsbm ─▶ immutable VersionedModel
//                                   │   published by atomic shared_ptr swap
//                                   ▼
//   readers ── Snapshot()/EstimateRange()/EstimateEquals(): lock-free reads
//              of the last published epoch; never touch the write locks.
//
// The merge step is exactly the §8 shared-nothing machinery: each shard is
// a "site" whose histogram covers the subset of values hashing to it, the
// lossless superposition adds their masses, and SSBM re-partitioning
// brings the composite back to the configured bucket budget.
//
// Publication runs in one of two modes. Synchronous (the default): the
// writer that trips a key's snapshot_every cadence performs the merge
// inline — simple, but that writer's latency spikes by the full merge
// cost each epoch. Asynchronous (EngineOptions::async_publish, or per key
// via SetKeyOptions): the tripping writer enqueues a publish request and
// returns immediately; merge workers drain the queue and publish under
// the same per-key publish_mu the sync path uses. A request is "publish
// the key's newest state", so a key has at most one queued: N trips while
// one is pending cost one merge, and the queue never outgrows the key
// count. merge_workers == 0 is manual-pump mode: the queue drains only
// through PumpPublishes()/DrainPublishes(), which is what the
// deterministic engine tests step. The merge workers are the one
// background executor: with background_interval_ms > 0, worker 0 also
// ticks, enqueueing every key with unpublished updates (whatever its
// publish mode). RefreshSnapshot()/RefreshAll() always publish inline.
//
// Consistency model: a snapshot merges every shard, but shards are
// flushed and exported one after another while writers keep pushing, so
// there is no cross-shard atomicity — a publication concurrent with a
// writer may include that writer's later update but not an earlier one
// that hashed to an already-exported shard. Within one shard the applied
// sequence is always a prefix of each producer's push order. Reads
// between publications see the previous epoch — estimates lag the stream
// by at most snapshot_every updates (or one background interval), and a
// quiescent RefreshSnapshot() is exact. Deletes must refer to values
// actually inserted for the key (the §7.3 convention: the executor
// deletes concrete tuples).

#ifndef DYNHIST_ENGINE_HISTOGRAM_ENGINE_H_
#define DYNHIST_ENGINE_HISTOGRAM_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/distributed/global_histogram.h"
#include "src/engine/engine_options.h"
#include "src/engine/key_handle.h"
#include "src/engine/key_state.h"
#include "src/engine/shard.h"
#include "src/engine/snapshot.h"
#include "src/telemetry/exposition.h"
#include "src/telemetry/log_histogram.h"
#include "src/telemetry/trace_ring.h"

namespace dynhist::engine {

/// Monotone counters describing engine activity — the global aggregate
/// from Stats(), or one key's share from Stats(key). The per-key
/// counters are the source of truth; the aggregate is their sum (max for
/// max_publish_nanos), so per-key stats sum to the global at any
/// synchronization point. Each field is one row of the counter table in
/// histogram_engine.cc, which also names its JSON field and its
/// engine-wide and per-key exposition series. A key's inserts, deletes
/// and feedbacks are its shards' accept counts (see EngineShard), summed
/// at read time; the other per-key counters are the key's KeyCounters.
///
/// Memory-ordering contract: a counter value carries the writes that
/// produced it (a reader that sees publishes == N also sees the Nth
/// published snapshot). KeyCounters cells are incremented with release
/// ordering and read by Stats() with acquire ordering; an accept count is
/// incremented under the shard's buffer lock, in the critical section
/// that accepts the op, and read under that lock. Counters are
/// individually monotone, but mutually consistent only after a
/// synchronization point — quiescence, DrainPublishes(), or
/// StopPublishWorkers() — because they are not incremented under one
/// lock.
struct EngineStats {
  std::uint64_t keys = 0;        ///< registered histogram keys
  std::uint64_t inserts = 0;     ///< Insert() calls accepted
  std::uint64_t deletes = 0;     ///< Delete() calls accepted
  std::uint64_t feedbacks = 0;   ///< RecordFeedback() calls accepted
  std::uint64_t queries = 0;     ///< estimate / snapshot reads served
  /// Always 0: every published snapshot carries its compiled arena, so
  /// no estimate read walks model pieces. Kept so existing consumers of
  /// the stats (and of ToJson's field set) keep working.
  std::uint64_t fallback_queries = 0;
  /// Estimate reads answered without a snapshot: the key was unknown OR
  /// known but never published. Both take the same fallback path (return
  /// 0.0, the empty epoch-0 view) and both count here — and in `queries`
  /// — so "reads the optimizer got nothing for" is one number. Global
  /// only (an unknown key has no per-key counters to charge).
  std::uint64_t unknown_queries = 0;

  // Epoch-pinned reader fast path (KeyHandle + thread-local lease
  // cache; see snapshot_lease.h). Every handle-path revalidation is
  // either a hit (cached snapshot reused — zero refcount traffic) or a
  // miss (shared_ptr re-acquired because the key's version moved, the
  // slot was cold, or it had been evicted). In steady state misses
  // track publications observed, not queries — the acceptance probe
  // that the hot path really performs no shared_ptr operations.
  std::uint64_t lease_hits = 0;    ///< revalidations served from the lease
  std::uint64_t lease_misses = 0;  ///< revalidations that re-acquired

  std::uint64_t publishes = 0;   ///< snapshot publications across all keys

  // Async publish pipeline (zero in purely synchronous engines).
  std::uint64_t async_publishes = 0;    ///< publishes run off the queue
  std::uint64_t publish_queued = 0;     ///< requests put on the queue
                                        ///< (cadence trips and ticks)
  std::uint64_t publish_coalesced = 0;  ///< cadence trips absorbed by an
                                        ///< already-pending request
  /// Always 0 (a key has at most one queued request, so none is ever
  /// dropped); kept for existing consumers of the stats and of ToJson.
  std::uint64_t publish_rejected = 0;
  std::uint64_t publish_skipped = 0;    ///< drained requests whose updates
                                        ///< an inline refresh had already
                                        ///< published (merge elided)

  // Publish-latency accounting. publish_nanos is merge + swap only
  // (flush, superimpose, reduce, pointer swap, on whichever thread ran
  // the publication); time a request spent waiting in the publish queue
  // is accounted separately in queue_wait_nanos — so async publication
  // end-to-end staleness is queue wait plus publish time, and the two
  // must not be conflated. queue_wait_nanos requires telemetry
  // (EngineOptions::enable_telemetry); it stays 0 when disabled.
  std::uint64_t publish_nanos = 0;      ///< total nanoseconds in Publish
  std::uint64_t max_publish_nanos = 0;  ///< slowest single Publish
  std::uint64_t queue_wait_nanos = 0;   ///< total ns requests sat queued

  /// Per-key: the key's published snapshot epoch (a gauge — epoch 0
  /// means never published). Global: the sum of per-key epochs, which at
  /// a synchronization point equals `publishes` (every publication of a
  /// key advances its epoch by exactly 1) — a cheap cross-counter
  /// consistency probe for dumps.
  std::uint64_t snapshot_epoch = 0;

  /// One-line JSON object with every field above, so benches, examples,
  /// and log lines dump self-describing stats instead of ad-hoc printf
  /// subsets.
  std::string ToJson() const;
};

/// Thread-safe registry of sharded dynamic histograms.
class HistogramEngine {
 public:
  explicit HistogramEngine(const EngineOptions& options);
  ~HistogramEngine();

  HistogramEngine(const HistogramEngine&) = delete;
  HistogramEngine& operator=(const HistogramEngine&) = delete;

  /// Records the insertion of one tuple with attribute value `value` under
  /// `key`, creating the key on first use. Thread-safe.
  void Insert(std::string_view key, std::int64_t value);

  /// Records the deletion of one tuple. The value must have been inserted
  /// under `key` (executor convention, §7.3). Thread-safe.
  void Delete(std::string_view key, std::int64_t value);

  /// Bulk insert: one buffer-lock round per shard instead of per value.
  void InsertBatch(std::string_view key,
                   const std::vector<std::int64_t>& values);

  /// Records one query-feedback observation for `key`: the predicate
  /// lo <= A <= hi was executed and returned `actual` tuples. The
  /// observation is broadcast to every shard with `actual` scaled by
  /// 1/shards — a range does not hash to one shard the way a value
  /// does, so each shard trains toward its 1/shards share and the
  /// publish-time Superimpose sums the shares back to the full
  /// cardinality. Feedback rides the normal batch buffers (applied
  /// in arrival order — see EngineShard), counts one update toward the
  /// publish cadence, and is a no-op on data-driven backends (DC/DVO/
  /// DADO ignore it), so it is safe against any key. Thread-safe.
  void RecordFeedback(std::string_view key, std::int64_t lo, std::int64_t hi,
                      double actual);
  void RecordFeedback(const KeyHandle& handle, std::int64_t lo,
                      std::int64_t hi, double actual);

  /// Drains every shard buffer of `key` (all keys for FlushAll) into the
  /// underlying histograms. Does not publish.
  void Flush(std::string_view key);
  void FlushAll();

  /// The last published snapshot for `key`. Lock-free on the hot path: a
  /// thread-local key cache hit plus one atomic shared_ptr load; never
  /// touches shard locks. An unknown or never-published key yields the
  /// empty epoch-0 snapshot.
  EngineSnapshot Snapshot(std::string_view key) const;

  /// Flushes, merges, and publishes a fresh snapshot of `key`, returning
  /// it. Concurrent refreshes of one key serialize; updates keep flowing.
  EngineSnapshot RefreshSnapshot(std::string_view key);

  /// Publishes fresh snapshots for every key with unpublished updates.
  void RefreshAll();

  /// Every registered key name, sorted. Cold path (shared registry
  /// lock + string copies) — this is the SiteShipper's per-round key
  /// enumeration, not a query primitive.
  std::vector<std::string> Keys() const;

  /// Publishes `model` as `key`'s next epoch, creating the key if
  /// needed — the distributed tier's entry point: the aggregator's
  /// merged global view enters the normal publish tail (arena compile,
  /// epoch bump, atomic swap, lease invalidation), so readers ride the
  /// compiled-snapshot + KeyHandle fast path with no idea the model
  /// came off the wire. The snapshot keeps the model's pieces exactly
  /// (same estimates) but not its bucket grouping: model() reads it
  /// back as one single-piece bucket per piece. `watermark` is recorded
  /// on the snapshot verbatim (for an aggregator: the summed site
  /// watermarks).
  /// Serializes with other publications of the key; shard buffers and
  /// ingest counters are untouched (external keys usually have none).
  EngineSnapshot PublishExternal(std::string_view key,
                                 const HistogramModel& model,
                                 std::uint64_t watermark = 0);

  /// Layers per-key overrides over the global EngineOptions for `key`
  /// (creating the key if needed). Present fields take effect immediately
  /// — including on the async/sync publish routing of in-flight writers;
  /// absent fields keep their current per-key value. Thread-safe.
  /// `backend` is the exception: it is a creation-time knob, honored
  /// only when the string form creates the key (so set a key's backend
  /// BEFORE its first update); on an existing key — and always through
  /// the handle form, which implies the key exists — it is ignored.
  void SetKeyOptions(std::string_view key, const KeyOptionOverrides& o);
  void SetKeyOptions(const KeyHandle& handle, const KeyOptionOverrides& o);

  /// The effective (global ⊕ per-key) options for `key`. Unknown keys
  /// report the global options. Thread-safe.
  EngineOptions EffectiveOptions(std::string_view key) const;
  EngineOptions EffectiveOptions(const KeyHandle& handle) const;

  /// Runs up to `max_requests` queued publish requests on the calling
  /// thread, returning how many it ran. With merge_workers == 0 this is
  /// the only thing that drains the queue — the deterministic manual-pump
  /// executor the engine test harness steps; it is also safe to call
  /// alongside live workers (both sides pop under the queue lock).
  std::size_t PumpPublishes(
      std::size_t max_requests = std::numeric_limits<std::size_t>::max());

  /// Returns once the publish queue is empty and no worker is mid-merge.
  /// With merge_workers == 0 it pumps the queue inline instead of
  /// waiting. Publications requested before the call are all visible
  /// through Snapshot() when it returns.
  void DrainPublishes();

  /// Stops the merge workers after they drain everything already queued
  /// (no request accepted before the call is lost), then joins them; in
  /// manual-pump mode the queue is pumped inline. From the stop on,
  /// nothing is queued: async keys publish synchronously, and background
  /// ticks stop, so keys that only ticks published wait for an explicit
  /// refresh. Called by the destructor; safe to call repeatedly.
  void StopPublishWorkers();

  /// Requests queued right now, at most one per key (diagnostic; racy).
  std::size_t PublishQueueDepth() const;

  /// Operations sitting in `key`'s shard buffers, not yet applied to the
  /// shard histograms (diagnostic; takes the buffer locks).
  std::size_t BufferedOps(std::string_view key) const;

  /// Estimated tuples under `key` with lo <= A <= hi / with A = v, read
  /// from the last published snapshot's compiled prefix-CDF arena.
  /// Lock-free and allocation-free.
  ///
  /// These string-keyed reads are thin wrappers: one key resolution (a
  /// thread-local key cache hit, or a registry find under the shared lock
  /// on a miss), then the same estimate body the handle overloads run.
  /// They re-acquire the published shared_ptr per call — the pre-handle
  /// cost model — and deliberately skip the thread-local lease cache so
  /// transient lookups never evict the slots long-lived handle readers
  /// depend on (the key cache holds KeyState pointers only, never a
  /// snapshot, so it pins no epoch). Hot readers should Resolve() once
  /// and query through the KeyHandle overloads below.
  double EstimateRange(std::string_view key, std::int64_t lo,
                       std::int64_t hi) const;
  double EstimateEquals(std::string_view key, std::int64_t v) const;

  // ---- Epoch-pinned reader fast path (see key_handle.h) ----

  /// Resolves `key` to a stable handle, creating the key if needed (so a
  /// returned handle is always valid). The registry find happens here,
  /// once; queries through the handle never repeat it. The handle stays
  /// valid across publishes, RefreshAll, and option changes, for the
  /// engine's lifetime — it is the object a long-lived reader (or, in
  /// the distributed tier, a server connection) holds per key.
  KeyHandle Resolve(std::string_view key);

  /// Resolves `key` without creating it: an invalid handle when the key
  /// does not exist. The lookup for callers that must not grow the
  /// registry, such as a server answering queries from the network.
  KeyHandle Find(std::string_view key) const;

  /// Estimates through a resolved handle: one relaxed version load
  /// revalidates this thread's snapshot lease, then the arena lookup —
  /// no registry lock and, on the steady-state hit path, no shared_ptr
  /// refcount traffic (the lease re-acquires only when the key's
  /// version moved; see snapshot_lease.h for the ordering contract).
  /// Bit-identical to the string-keyed reads.
  double EstimateRange(const KeyHandle& handle, std::int64_t lo,
                       std::int64_t hi) const;
  double EstimateEquals(const KeyHandle& handle, std::int64_t v) const;

  /// Batch estimate: answers `count` range queries into `results`,
  /// revalidating the lease and settling the stats counters ONCE for
  /// the whole span — the per-query cost converges to the raw arena
  /// lookup as the batch grows. Results are exactly what `count`
  /// EstimateRange(handle, …) calls would return (the batch is one
  /// consistent snapshot: all answers come from the same lease).
  void EstimateRangeBatch(const KeyHandle& handle, const RangeQuery* queries,
                          std::size_t count, double* results) const;
  std::vector<double> EstimateRangeBatch(
      const KeyHandle& handle, const std::vector<RangeQuery>& queries) const;

  /// The published snapshot via the lease — the handle analogue of
  /// Snapshot(key), sharing its semantics (counts a query; yields the
  /// empty epoch-0 snapshot before first publication) but revalidating
  /// through the thread-local lease instead of re-acquiring from the
  /// registry. The returned EngineSnapshot copies the leased shared_ptr
  /// (one refcount op — the handoff price, not the steady-state one).
  /// Per thread, epochs observed through one handle are monotone.
  EngineSnapshot LeasedSnapshot(const KeyHandle& handle) const;

  /// Exact live mass currently absorbed by the shards of `key` (flushes
  /// buffers; takes shard locks — diagnostic, not a hot-path call).
  double LiveTotalCount(std::string_view key);

  /// Global aggregate across all keys / one key's share (an unknown key
  /// reports all-zero stats with keys == 0). See the EngineStats
  /// contract for the consistency model. The handle overload skips the
  /// registry find, like every handle entry point.
  EngineStats Stats() const;
  EngineStats Stats(std::string_view key) const;
  EngineStats Stats(const KeyHandle& handle) const;

  /// Metrics exposition: everything the engine knows about itself —
  /// global and per-key counters, staleness/queue-depth gauges, and the
  /// latency/size distributions — rendered as Prometheus text or JSON
  /// (see src/telemetry/exposition.h). Per-key series are collected at
  /// scrape time, sorted by key. Thread-safe; scrape-cost only.
  void WriteMetricsPrometheus(std::string* out) const;
  void WriteMetricsJson(std::string* out) const;

  /// Dumps the trace ring (publish/merge/flush events) as a
  /// chrome://tracing JSON document. Empty trace when tracing is off.
  void WriteTraceJson(std::string* out) const;

  /// The engine's trace ring: the newest 4096 events (diagnostic access;
  /// always valid, disabled when telemetry is off).
  const telemetry::TraceRing& trace() const { return trace_; }

  const EngineOptions& options() const { return options_; }

 private:
  // Per-key state is hoisted to key_state.h (namespace internal) so
  // KeyHandle and the thread-local snapshot lease cache can name it; the
  // alias keeps this class's vocabulary unchanged.
  using KeyState = internal::KeyState;

  // Resolves a string key: the calling thread's key cache first (no lock,
  // no read-modify-write on a hit), else the registry under the shared
  // lock, which refills the cache slot. FindKey returns nullptr for an
  // unknown key (never cached); FindOrCreateKey creates it, and its
  // `backend` overrides the shard histogram kind if (and only if) this
  // call creates the key — the KeyOptionOverrides::backend selector.
  // Every string-keyed entry point resolves through one of these.
  KeyState* FindKey(std::string_view key) const;
  KeyState* FindOrCreateKey(std::string_view key);
  KeyState* FindOrCreateKey(std::string_view key,
                            std::optional<ShardHistogramKind> backend);

  // Every key's state, copied out under a shared registry_mu_ so callers
  // walk the keys without holding it (states are never erased).
  std::vector<KeyState*> KeyStates() const;

  // The global aggregate over `states` (what Stats() reports).
  EngineStats GlobalStats(const std::vector<KeyState*>& states) const;

  // One scrape: the engine-wide gauges and distributions, the counter
  // table, then every key's series (sorted by key) read straight off the
  // key states with registry_mu_ released.
  telemetry::MetricsSnapshot CollectMetrics() const;

  // Shard routing for `value` — the single definition of the hash-to-shard
  // policy; Insert/Delete and InsertBatch must agree or the per-shard
  // insert-before-delete ordering guarantee breaks.
  static std::size_t ShardIndexFor(const KeyState& state, std::int64_t value);
  EngineShard& ShardFor(KeyState& state, std::int64_t value) const;

  // The estimate tail the scalar entry points (string, handle) funnel
  // into: counts the query against `state`, unifies the no-snapshot
  // fallback (vm == nullptr counts in unknown_queries_, exactly like an
  // unknown key), reads the arena, and latency-samples every 1024th
  // query of a key into query_latency_hist_ (the other 1023 pay no
  // clock read). `vm` is whatever the caller's acquisition strategy
  // produced — a freshly acquired shared_ptr (string path) or the
  // thread's lease (handle path).
  double EstimateOnState(KeyState& state, const VersionedModel* vm,
                         std::int64_t lo, std::int64_t hi) const;

  // Settles the lease hit/miss counters for one revalidation of `state`.
  void CountLease(KeyState& state, bool hit) const;

  // Pushes one op (its shard counts it), bumps the key's update count,
  // and runs the publish cadence.
  void Update(std::string_view key, const UpdateOp& op);

  // After accepting new updates: publish (sync) or enqueue a publish
  // request (async) if the key's cadence says so.
  void MaybeAutoPublish(KeyState& state);

  // The one way onto the publish queue, for cadence trips and ticks:
  // raises the key's requested watermark to `count`, then queues a
  // request unless one is pending (a pending request absorbs a `trip`
  // as publish_coalesced). Spawns the pool on first use. Returns false,
  // queueing nothing, once StopPublishWorkers has begun.
  bool EnqueuePublish(KeyState& state, std::uint64_t count, bool trip);

  // Pops one request and publishes it on the calling thread. Returns
  // false when the queue is empty. Shared by workers and PumpPublishes.
  bool RunOneQueuedPublish();

  // Spawns the merge workers if configured and not yet running; worker 0
  // ticks when background_interval_ms > 0. Called under queue_mu_.
  void EnsureWorkersLocked();

  // Flush + superimpose + reduce + atomic publish. Returns the snapshot.
  // The second overload runs under an already-held publish lock.
  // `trigger` names what drove the publication ("sync", "async",
  // "refresh") for the trace.
  EngineSnapshot Publish(KeyState& state, const char* trigger);
  EngineSnapshot Publish(KeyState& state,
                         std::unique_lock<std::mutex> publish_lock,
                         const char* trigger);

  // When a shard-path publication finished exporting and merging (trace
  // clock), for its flush and merge trace events.
  struct ShardStages {
    std::uint64_t exported_ns;
    std::uint64_t merged_ns;
  };

  // The publish tail Publish and PublishExternal share, run under the
  // key's publish_mu: epoch bump, VersionedModel (arena compile), swap,
  // version bump, publish counters, latency, and trace. `stages` is null
  // for an external model, which leaves published_at (the ingest
  // watermark) alone and traces the publish event only.
  EngineSnapshot PublishTail(KeyState& state, const HistogramModel& model,
                             std::uint64_t watermark, const char* trigger,
                             std::uint64_t start_ns,
                             const ShardStages* stages);

  // Drains `state`'s shard buffers and traces the flush (Flush/FlushAll).
  void FlushKey(KeyState& state);

  // Pops and publishes queued requests until the stop; `ticks` also runs
  // the background tick every background_interval_ms.
  void MergeWorkerLoop(bool ticks);

  const EngineOptions options_;
  // True when this engine records distributions/traces/queue-wait; the
  // EngineStats counters are maintained regardless.
  const bool telemetry_on_;
  // Process-unique engine instance id, part of the identity of a lease
  // slot and of a key cache slot: a KeyState address reused by a later
  // engine never matches an earlier engine's thread-local entries (see
  // snapshot_lease.h).
  const std::uint64_t engine_id_;

  // Telemetry instruments. Declared before the key registry so key
  // states (whose shards hold histogram pointers) never outlive them;
  // the ring also provides the engine's monotonic ns clock (NowNs).
  // Each histogram starts its own cache line: writers, drains and
  // publishes record into them concurrently, and unaligned they shared
  // lines with each other and with the engine fields around them
  // (perfbench `ingest` lost about 7% of its update rate).
  telemetry::TraceRing trace_;
  alignas(64) telemetry::LogHistogram publish_latency_hist_{  // ns/publish
      telemetry::LogBucketer::PowersOfTwo()};
  alignas(64) telemetry::LogHistogram queue_wait_hist_{  // ns queued
      telemetry::LogBucketer::PowersOfTwo()};
  alignas(64) telemetry::LogHistogram ingest_batch_hist_{  // ops per drain
      telemetry::LogBucketer::PerDecade(4)};
  alignas(64) telemetry::LogHistogram coalesce_run_hist_{  // dupes per run
      telemetry::LogBucketer::PerDecade(4)};
  // ns per sampled estimate; mutable because the const estimate path
  // records into it.
  alignas(64) mutable telemetry::LogHistogram query_latency_hist_{
      telemetry::LogBucketer::PowersOfTwo()};

  // Heterogeneous (string_view) lookup keeps FindKey's registry find
  // free of temporary std::string construction — the read path's only
  // remaining allocation risk for keys beyond the SSO limit. The key
  // cache indexes its slots by the same hash.
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  mutable std::shared_mutex registry_mu_;
  std::unordered_map<std::string, std::unique_ptr<KeyState>, StringHash,
                     std::equal_to<>>
      registry_;

  // Reads the engine had no snapshot to answer from: estimates against
  // keys that were never created AND estimates against created keys
  // that have never published (one unified fallback path — both return
  // the empty epoch-0 answer), plus Snapshot() of unknown keys. The
  // per-key query counters cover reads that were actually served.
  mutable std::atomic<std::uint64_t> unknown_queries_{0};

  // Publish queue (all guarded by queue_mu_ unless noted). Holds raw
  // KeyState pointers, at most one per key (KeyState::publish_pending):
  // the registry never erases keys, and the destructor stops the workers
  // before the registry is torn down.
  mutable std::mutex queue_mu_;
  std::deque<KeyState*> publish_queue_;
  std::condition_variable queue_cv_;  // workers: work available / stopping
                                      // (worker 0 also wakes to tick)
  std::condition_variable drain_cv_;  // DrainPublishes: empty and idle
  int publishes_in_flight_ = 0;
  bool queue_stopping_ = false;
  bool workers_spawned_ = false;
  std::vector<std::thread> workers_;
  // Set (after the join) by StopPublishWorkers: async keys fall back to
  // synchronous publication. Read outside queue_mu_ on the writer path.
  std::atomic<bool> workers_stopped_{false};
};

}  // namespace dynhist::engine

#endif  // DYNHIST_ENGINE_HISTOGRAM_ENGINE_H_
