#include "src/engine/histogram_engine.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/distributed/global_histogram.h"
#include "src/engine/snapshot_lease.h"

namespace dynhist::engine {
namespace {

// Trace ring capacity: the last ~1365 publications' flush/merge/publish.
constexpr std::size_t kTraceEvents = 4096;

// Engine instance ids for the lease slot and key cache identity (see
// snapshot_lease.h). Never 0, so an empty key cache slot matches nothing.
std::uint64_t NextEngineId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// The thread-local key cache in front of the registry: a direct-mapped
// table of resolved keys, indexed by the registry's string hash. A hit
// (same engine, same name) resolves a string key with no lock and no
// read-modify-write; a miss takes the registry's shared lock and refills
// the slot. It is safe for the lease cache's reasons: a KeyState is never
// erased while its engine lives, and an engine id is never reused, so a
// slot whose engine id matches the calling engine points at a live
// KeyState, and a slot left behind by a destroyed engine matches no
// engine again. A slot holds no snapshot, so the cache pins no epoch and
// never evicts a handle reader's lease.
//
// Sized on perfbench `read_mostly`'s 512 keys under Zipf(1.0)
// popularity: 512 slots (8 KB per thread) hit 83.8% of lookups, against
// 73.8% for 256 and 90.6% for 1024. Every thread that starts carries the
// table, so the 16 KB of 1024 slots showed as about +7% in `ingest`'s
// resident-memory growth, which 512 halves.
struct KeyCacheSlot {
  std::uint64_t engine_id = 0;
  internal::KeyState* state = nullptr;
};

constexpr std::size_t kKeyCacheSlots = 512;  // a power of two
thread_local std::array<KeyCacheSlot, kKeyCacheSlots> t_key_cache;

// splitmix64 finalizer: scatters adjacent attribute values across shards
// (std::hash on integers is the identity on libstdc++, which would map
// arithmetic value patterns onto a single shard).
std::uint64_t MixValue(std::int64_t value) {
  auto z = static_cast<std::uint64_t>(value) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void BumpMax(std::atomic<std::uint64_t>& cell, std::uint64_t value) {
  std::uint64_t prev = cell.load(std::memory_order_relaxed);
  while (prev < value &&
         !cell.compare_exchange_weak(prev, value, std::memory_order_release,
                                     std::memory_order_relaxed)) {
  }
}

using internal::KeyCounters;
using AcceptCounts = EngineShard::AcceptCounts;
using telemetry::MetricKind;

// The engine's counter table: one row per EngineStats field, in ToJson
// order. Stats() accumulation, ToJson, and the engine-wide and per-key
// exposition are all loops over it.
struct CounterRow {
  const char* field;  // EngineStats field name, as ToJson spells it
  std::uint64_t EngineStats::*stat;
  // Where a key's value lives: a KeyCounters cell, or an accept count
  // its shards keep (summed over them). Both null for the fields the
  // engine fills itself (key count, unknown-key reads, epoch sum) and for
  // the ones that are always 0.
  std::atomic<std::uint64_t> KeyCounters::*cell;
  std::uint64_t AcceptCounts::*accepted;
  bool combine_max;           // global = max over keys (else the sum)
  MetricKind kind;            // of both series
  const char* engine_series;  // null: not exposed engine-wide
  const char* key_series;     // null: no per-key series
  const char* help;
};

constexpr MetricKind kCounter = MetricKind::kCounter;
constexpr MetricKind kGauge = MetricKind::kGauge;

constexpr CounterRow kCounterTable[] = {
    {"keys", &EngineStats::keys, nullptr, nullptr, false, kGauge,
     "dynhist_engine_keys", nullptr, "Registered histogram keys"},
    {"inserts", &EngineStats::inserts, nullptr, &AcceptCounts::inserts, false,
     kCounter, "dynhist_engine_inserts_total", "dynhist_key_inserts_total",
     "Insert() calls accepted"},
    {"deletes", &EngineStats::deletes, nullptr, &AcceptCounts::deletes, false,
     kCounter, "dynhist_engine_deletes_total", "dynhist_key_deletes_total",
     "Delete() calls accepted"},
    {"feedbacks", &EngineStats::feedbacks, nullptr, &AcceptCounts::feedbacks,
     false, kCounter, "dynhist_engine_feedbacks_total",
     "dynhist_key_feedbacks_total", "RecordFeedback() observations accepted"},
    {"queries", &EngineStats::queries, &KeyCounters::queries, nullptr, false,
     kCounter, "dynhist_engine_queries_total", "dynhist_key_queries_total",
     "Snapshot/estimate reads served (engine-wide: unknown keys included)"},
    {"fallback_queries", &EngineStats::fallback_queries, nullptr, nullptr,
     false, kCounter, nullptr, nullptr, nullptr},
    {"unknown_queries", &EngineStats::unknown_queries, nullptr, nullptr, false,
     kCounter, "dynhist_engine_unknown_queries_total", nullptr,
     "Estimate reads answered without a snapshot (unknown key, or known "
     "key never published)"},
    {"lease_hits", &EngineStats::lease_hits, &KeyCounters::lease_hits,
     nullptr, false, kCounter, "dynhist_snapshot_lease_hits_total",
     "dynhist_key_snapshot_lease_hits_total",
     "Handle-path lease revalidations served from the thread-local cache "
     "(no shared_ptr traffic)"},
    {"lease_misses", &EngineStats::lease_misses, &KeyCounters::lease_misses,
     nullptr, false, kCounter, "dynhist_snapshot_lease_misses_total",
     "dynhist_key_snapshot_lease_misses_total",
     "Handle-path lease revalidations that re-acquired the published "
     "snapshot (version moved, cold slot, or evicted)"},
    {"publishes", &EngineStats::publishes, &KeyCounters::publishes, nullptr,
     false, kCounter, "dynhist_engine_publishes_total",
     "dynhist_key_publishes_total", "Snapshot publications"},
    {"async_publishes", &EngineStats::async_publishes,
     &KeyCounters::async_publishes, nullptr, false, kCounter,
     "dynhist_engine_async_publishes_total",
     "dynhist_key_async_publishes_total",
     "Publications run off the publish queue"},
    {"publish_queued", &EngineStats::publish_queued,
     &KeyCounters::publish_queued, nullptr, false, kCounter,
     "dynhist_engine_publish_queued_total",
     "dynhist_key_publish_queued_total",
     "Publish requests accepted onto the queue"},
    {"publish_coalesced", &EngineStats::publish_coalesced,
     &KeyCounters::publish_coalesced, nullptr, false, kCounter,
     "dynhist_engine_publish_coalesced_total",
     "dynhist_key_publish_coalesced_total",
     "Cadence trips absorbed by an already-pending request"},
    {"publish_rejected", &EngineStats::publish_rejected, nullptr, nullptr,
     false, kCounter, nullptr, nullptr, nullptr},
    {"publish_skipped", &EngineStats::publish_skipped,
     &KeyCounters::publish_skipped, nullptr, false, kCounter,
     "dynhist_engine_publish_skipped_total",
     "dynhist_key_publish_skipped_total",
     "Drained requests elided because a newer publication covered them"},
    {"publish_nanos", &EngineStats::publish_nanos,
     &KeyCounters::publish_nanos, nullptr, false, kCounter,
     "dynhist_engine_publish_nanos_total", "dynhist_key_publish_nanos_total",
     "Total nanoseconds spent publishing"},
    {"max_publish_nanos", &EngineStats::max_publish_nanos,
     &KeyCounters::max_publish_nanos, nullptr, true, kGauge,
     "dynhist_engine_max_publish_nanos", nullptr,
     "Slowest single publication, ns"},
    {"queue_wait_nanos", &EngineStats::queue_wait_nanos,
     &KeyCounters::queue_wait_nanos, nullptr, false, kCounter,
     "dynhist_engine_queue_wait_nanos_total",
     "dynhist_key_queue_wait_nanos_total",
     "Total nanoseconds publish requests sat queued"},
    {"snapshot_epoch", &EngineStats::snapshot_epoch, nullptr, nullptr, false,
     kGauge, "dynhist_engine_snapshot_epochs", nullptr,
     "Sum of per-key published epochs (equals publishes at sync points)"},
};

constexpr bool HasKeyValue(const CounterRow& row) {
  return row.cell != nullptr || row.accepted != nullptr;
}

// A per-key series reads its row's per-key value, from one source.
static_assert(std::ranges::all_of(kCounterTable, [](const CounterRow& row) {
  return (row.key_series == nullptr || HasKeyValue(row)) &&
         (row.cell == nullptr || row.accepted == nullptr);
}));

// `state`'s accept counts, summed over its shards (one buffer-lock round
// per shard).
AcceptCounts AcceptedOf(const internal::KeyState& state) {
  AcceptCounts sum;
  for (const auto& shard : state.shards) {
    const AcceptCounts counts = shard->Accepted();
    sum.inserts += counts.inserts;
    sum.deletes += counts.deletes;
    sum.feedbacks += counts.feedbacks;
  }
  return sum;
}

// The per-key value of a row with one (HasKeyValue), given the key's
// summed accept counts. The acquire load pairs with the release
// increments, and an accept count is read under the buffer lock that
// counted it (see the EngineStats contract): observing a count implies
// observing the work it counts.
std::uint64_t KeyValue(const CounterRow& row, const internal::KeyState& state,
                       const AcceptCounts& accepted) {
  return row.cell != nullptr
             ? (state.counters.*row.cell).load(std::memory_order_acquire)
             : accepted.*row.accepted;
}

// Adds `state`'s counters into `*stats` per the table (sums, max for
// max_publish_nanos), plus its epoch into snapshot_epoch.
void AccumulateStats(const internal::KeyState& state, EngineStats* stats) {
  const AcceptCounts accepted = AcceptedOf(state);
  for (const CounterRow& row : kCounterTable) {
    if (!HasKeyValue(row)) continue;
    const std::uint64_t value = KeyValue(row, state, accepted);
    std::uint64_t& total = stats->*row.stat;
    total = row.combine_max ? std::max(total, value) : total + value;
  }
  stats->snapshot_epoch += state.epoch.load(std::memory_order_acquire);
}

// Publish-path scratch reused across publishes: the exported shard models
// and the merger's sweep and SSBM buffers, so a steady-state publisher
// allocates nothing proportional to the shard count or piece count. There
// is one per publishing thread, not one per key: a thread merges one key
// at a time, and per-key copies would hold tens of KB per key between
// publishes.
struct PublishScratch {
  std::vector<HistogramModel> models;
  distributed::SnapshotMerger merger;
};

PublishScratch& ThreadPublishScratch() {
  thread_local PublishScratch scratch;
  return scratch;
}

std::size_t BufferedOpsOf(const internal::KeyState& state) {
  std::size_t buffered = 0;
  for (const auto& shard : state.shards) buffered += shard->BufferedOps();
  return buffered;
}

}  // namespace

std::string EngineStats::ToJson() const {
  std::string json = "{";
  for (const CounterRow& row : kCounterTable) {
    if (json.size() > 1) json.push_back(',');
    json.push_back('"');
    json.append(row.field);
    json.append("\":");
    json.append(std::to_string(this->*row.stat));
  }
  json.push_back('}');
  return json;
}

internal::KeyState::KeyState(std::string key_name,
                             const EngineOptions& options,
                             const ShardTelemetry& shard_telemetry)
    : name(std::move(key_name)),
      kind(options.kind),
      snapshot_every(options.snapshot_every),
      merged_buckets(options.merged_buckets),
      async_publish(options.async_publish) {
  shards.reserve(static_cast<std::size_t>(options.shards));
  for (int i = 0; i < options.shards; ++i) {
    shards.push_back(
        std::make_unique<EngineShard>(options, shard_telemetry));
  }
}

HistogramEngine::HistogramEngine(const EngineOptions& options)
    : options_(options),
      telemetry_on_(options.enable_telemetry),
      engine_id_(NextEngineId()),
      trace_(telemetry_on_ ? kTraceEvents : 0) {
  DH_CHECK(options_.shards >= 1);
  DH_CHECK(options_.batch_size >= 1);
  DH_CHECK(options_.snapshot_every >= 0);
  DH_CHECK(options_.merged_buckets >= 0);
  DH_CHECK(options_.merge_workers >= 0);
  // Background ticks run on merge worker 0, so they need a pool, started
  // now rather than on the first enqueue.
  DH_CHECK(options_.background_interval_ms == 0 ||
           options_.merge_workers >= 1);
  if (options_.background_interval_ms > 0) {
    std::lock_guard<std::mutex> lock(queue_mu_);
    EnsureWorkersLocked();
  }
}

HistogramEngine::~HistogramEngine() {
  // Queued publish requests are commitments: drain them (via the workers'
  // stop-after-drain protocol, or inline in manual-pump mode) before the
  // registry they point into is destroyed.
  StopPublishWorkers();
}

HistogramEngine::KeyState* HistogramEngine::FindKey(
    std::string_view key) const {
  KeyCacheSlot& slot = t_key_cache[StringHash{}(key) & (kKeyCacheSlots - 1)];
  // The engine id is checked first: only then is slot.state known to be
  // live.
  if (slot.engine_id == engine_id_ && slot.state->name == key) {
    return slot.state;
  }
  KeyState* state = nullptr;
  {
    std::shared_lock<std::shared_mutex> lock(registry_mu_);
    const auto it = registry_.find(key);  // transparent: no string temp
    if (it == registry_.end()) return nullptr;  // unknown keys stay uncached
    state = it->second.get();
  }
  slot = {engine_id_, state};
  return state;
}

HistogramEngine::KeyState* HistogramEngine::FindOrCreateKey(
    std::string_view key) {
  return FindOrCreateKey(key, std::nullopt);
}

HistogramEngine::KeyState* HistogramEngine::FindOrCreateKey(
    std::string_view key, std::optional<ShardHistogramKind> backend) {
  if (KeyState* state = FindKey(key)) return state;
  {
    std::unique_lock<std::shared_mutex> lock(registry_mu_);
    auto [it, inserted] = registry_.try_emplace(std::string(key), nullptr);
    if (inserted) {
      EngineOptions creation_options = options_;
      if (backend) creation_options.kind = *backend;
      it->second = std::make_unique<KeyState>(
          it->first, creation_options,
          ShardTelemetry{telemetry_on_ ? &ingest_batch_hist_ : nullptr,
                         telemetry_on_ ? &coalesce_run_hist_ : nullptr});
    }
  }
  return FindKey(key);  // caches the slot
}

std::vector<HistogramEngine::KeyState*> HistogramEngine::KeyStates() const {
  std::vector<KeyState*> states;
  std::shared_lock<std::shared_mutex> lock(registry_mu_);
  states.reserve(registry_.size());
  for (const auto& [name, state] : registry_) states.push_back(state.get());
  return states;
}

std::size_t HistogramEngine::ShardIndexFor(const KeyState& state,
                                           std::int64_t value) {
  if (state.shards.size() == 1) return 0;
  return static_cast<std::size_t>(MixValue(value) % state.shards.size());
}

EngineShard& HistogramEngine::ShardFor(KeyState& state,
                                       std::int64_t value) const {
  return *state.shards[ShardIndexFor(state, value)];
}

void HistogramEngine::Update(std::string_view key, const UpdateOp& op) {
  KeyState* state = FindOrCreateKey(key);
  ShardFor(*state, op.value).Push(op);  // counts the op under its lock
  state->update_count.fetch_add(1, std::memory_order_relaxed);
  MaybeAutoPublish(*state);
}

void HistogramEngine::Insert(std::string_view key, std::int64_t value) {
  Update(key, UpdateOp::Insert(value));
}

void HistogramEngine::Delete(std::string_view key, std::int64_t value) {
  Update(key, UpdateOp::Delete(value));
}

void HistogramEngine::InsertBatch(std::string_view key,
                                  const std::vector<std::int64_t>& values) {
  if (values.empty()) return;
  KeyState* state = FindOrCreateKey(key);
  // Partition once, then one PushMany (one buffer-lock round) per shard.
  std::vector<std::vector<UpdateOp>> per_shard(state->shards.size());
  for (const std::int64_t v : values) {
    per_shard[ShardIndexFor(*state, v)].push_back(UpdateOp::Insert(v));
  }
  for (std::size_t s = 0; s < per_shard.size(); ++s) {
    state->shards[s]->PushMany(per_shard[s]);
  }
  state->update_count.fetch_add(values.size(), std::memory_order_relaxed);
  MaybeAutoPublish(*state);
}

void HistogramEngine::RecordFeedback(std::string_view key, std::int64_t lo,
                                     std::int64_t hi, double actual) {
  RecordFeedback(Resolve(key), lo, hi, actual);
}

void HistogramEngine::RecordFeedback(const KeyHandle& handle, std::int64_t lo,
                                     std::int64_t hi, double actual) {
  DH_CHECK(handle.valid());
  DH_CHECK(lo <= hi);
  DH_CHECK(actual >= 0.0);
  KeyState& state = *handle.state_;

  // Convergence telemetry first, against the snapshot the optimizer
  // would have consulted for this predicate (a never-published key reads
  // as the empty view, estimate 0 — exactly what a caller saw).
  if (telemetry_on_) {
    double estimate = 0.0;
    if (const std::shared_ptr<const VersionedModel> published =
            state.published.load(std::memory_order_acquire)) {
      estimate = published->compiled.EstimateRange(lo, hi);
    }
    state.feedback_error.Record(static_cast<std::uint64_t>(
        std::llround(std::fabs(estimate - actual))));
  }

  // Broadcast to every shard with `actual` scaled by 1/shards: a range
  // predicate does not hash to one shard the way a value does, so each
  // shard trains toward its expected share and the publish-time
  // Superimpose sums the shares back to the full cardinality. The op
  // rides the normal batch buffer and counts one update toward the
  // publish cadence; shard 0 alone counts it as an accepted feedback.
  const double share =
      actual / static_cast<double>(state.shards.size());
  const UpdateOp op = UpdateOp::Feedback(lo, hi, share);
  for (std::size_t s = 0; s < state.shards.size(); ++s) {
    state.shards[s]->Push(op, /*counted=*/s == 0);
  }
  state.update_count.fetch_add(1, std::memory_order_relaxed);
  MaybeAutoPublish(state);
}

void HistogramEngine::Flush(std::string_view key) {
  if (KeyState* state = FindKey(key)) FlushKey(*state);
}

void HistogramEngine::FlushAll() {
  for (KeyState* state : KeyStates()) FlushKey(*state);
}

void HistogramEngine::FlushKey(KeyState& state) {
  const std::uint64_t start_ns = trace_.NowNs();
  for (const auto& shard : state.shards) shard->Flush();
  if (telemetry_on_ && trace_.enabled()) {
    trace_.Record({telemetry::TraceEventKind::kFlush, state.name.c_str(),
                   "manual", state.epoch.load(std::memory_order_relaxed),
                   start_ns, trace_.NowNs() - start_ns, 0});
  }
}

EngineSnapshot HistogramEngine::Snapshot(std::string_view key) const {
  KeyState* state = FindKey(key);
  if (state == nullptr) {
    unknown_queries_.fetch_add(1, std::memory_order_release);
    return EngineSnapshot();
  }
  state->counters.queries.fetch_add(1, std::memory_order_release);
  std::shared_ptr<const VersionedModel> published =
      state->published.load(std::memory_order_acquire);
  if (published == nullptr) return EngineSnapshot();
  return EngineSnapshot(std::move(published));
}

EngineSnapshot HistogramEngine::RefreshSnapshot(std::string_view key) {
  return Publish(*FindOrCreateKey(key), "refresh");
}

void HistogramEngine::RefreshAll() {
  for (KeyState* state : KeyStates()) {
    if (state->update_count.load(std::memory_order_relaxed) >
        state->published_at.load(std::memory_order_relaxed)) {
      Publish(*state, "refresh");
    }
  }
}

std::vector<std::string> HistogramEngine::Keys() const {
  std::vector<std::string> keys;
  for (const KeyState* state : KeyStates()) keys.push_back(state->name);
  std::sort(keys.begin(), keys.end());
  return keys;
}

EngineSnapshot HistogramEngine::PublishExternal(std::string_view key,
                                                const HistogramModel& model,
                                                std::uint64_t watermark) {
  KeyState& state = *FindOrCreateKey(key);
  std::lock_guard<std::mutex> publish_lock(state.publish_mu);
  return PublishTail(state, model, watermark, "external", trace_.NowNs(),
                     nullptr);
}

double HistogramEngine::EstimateRange(std::string_view key, std::int64_t lo,
                                      std::int64_t hi) const {
  // Thin wrapper: the one transparent registry find, then the shared
  // estimate body on a per-call shared_ptr acquisition (no lease — see
  // the header on why transient string lookups stay off the TLS cache).
  KeyState* state = FindKey(key);
  if (state == nullptr) {
    unknown_queries_.fetch_add(1, std::memory_order_release);
    return 0.0;
  }
  const std::shared_ptr<const VersionedModel> published =
      state->published.load(std::memory_order_acquire);
  return EstimateOnState(*state, published.get(), lo, hi);
}

double HistogramEngine::EstimateEquals(std::string_view key,
                                       std::int64_t v) const {
  return EstimateRange(key, v, v);
}

double HistogramEngine::EstimateOnState(KeyState& state,
                                        const VersionedModel* vm,
                                        std::int64_t lo,
                                        std::int64_t hi) const {
  if (vm == nullptr) {
    // Unified fallback: a key with no published snapshot answers exactly
    // like an unknown key — the implicit empty epoch-0 view, counted in
    // unknown_queries (not as a served per-key query).
    unknown_queries_.fetch_add(1, std::memory_order_release);
    return 0.0;
  }
  const std::uint64_t qn =
      state.counters.queries.fetch_add(1, std::memory_order_release);
  // Sampling every 1024th query keeps the latency histogram's two clock
  // reads off the hot path; qn is the pre-increment count, so a key's
  // first query is always sampled and the series is never empty.
  const bool sample = telemetry_on_ && (qn & 1023u) == 0u;
  const std::uint64_t t0 = sample ? trace_.NowNs() : 0;
  const double result = vm->compiled.EstimateRange(lo, hi);
  if (sample) query_latency_hist_.Record(trace_.NowNs() - t0);
  return result;
}

void HistogramEngine::CountLease(KeyState& state, bool hit) const {
  std::atomic<std::uint64_t>& cell =
      hit ? state.counters.lease_hits : state.counters.lease_misses;
  cell.fetch_add(1, std::memory_order_release);
}

KeyHandle HistogramEngine::Resolve(std::string_view key) {
  return KeyHandle(FindOrCreateKey(key));
}

KeyHandle HistogramEngine::Find(std::string_view key) const {
  return KeyHandle(FindKey(key));
}

double HistogramEngine::EstimateRange(const KeyHandle& handle,
                                      std::int64_t lo,
                                      std::int64_t hi) const {
  DH_CHECK(handle.valid());
  KeyState& state = *handle.state_;
  const internal::LeaseView lease =
      internal::AcquireLease(state, engine_id_);
  CountLease(state, lease.hit);
  return EstimateOnState(state, lease.model(), lo, hi);
}

double HistogramEngine::EstimateEquals(const KeyHandle& handle,
                                       std::int64_t v) const {
  return EstimateRange(handle, v, v);
}

void HistogramEngine::EstimateRangeBatch(const KeyHandle& handle,
                                         const RangeQuery* queries,
                                         std::size_t count,
                                         double* results) const {
  if (count == 0) return;
  DH_CHECK(handle.valid());
  KeyState& state = *handle.state_;
  const internal::LeaseView lease =
      internal::AcquireLease(state, engine_id_);
  CountLease(state, lease.hit);
  const VersionedModel* vm = lease.model();
  if (vm == nullptr) {
    // Unified no-snapshot fallback, batch form: every query in the span
    // is an unknown-query answer of 0.0 (see EstimateOnState).
    unknown_queries_.fetch_add(count, std::memory_order_release);
    std::fill(results, results + count, 0.0);
    return;
  }
  // One counter settle for the span; the loop body is the raw arena
  // lookup — per-query cost converges to the arena's as the batch grows.
  // Answers are bit-identical to the scalar path: same expressions, same
  // snapshot.
  state.counters.queries.fetch_add(count, std::memory_order_release);
  for (std::size_t i = 0; i < count; ++i) {
    results[i] = vm->compiled.EstimateRange(queries[i].lo, queries[i].hi);
  }
}

std::vector<double> HistogramEngine::EstimateRangeBatch(
    const KeyHandle& handle, const std::vector<RangeQuery>& queries) const {
  std::vector<double> results(queries.size(), 0.0);
  EstimateRangeBatch(handle, queries.data(), queries.size(),
                     results.data());
  return results;
}

EngineSnapshot HistogramEngine::LeasedSnapshot(
    const KeyHandle& handle) const {
  DH_CHECK(handle.valid());
  KeyState& state = *handle.state_;
  const internal::LeaseView lease =
      internal::AcquireLease(state, engine_id_);
  CountLease(state, lease.hit);
  state.counters.queries.fetch_add(1, std::memory_order_release);
  if (lease.model() == nullptr) return EngineSnapshot();
  return EngineSnapshot(*lease.snapshot);  // the one handoff refcount op
}

double HistogramEngine::LiveTotalCount(std::string_view key) {
  KeyState* state = FindKey(key);
  if (state == nullptr) return 0.0;
  double total = 0.0;
  for (const auto& shard : state->shards) total += shard->TotalCount();
  return total;
}

EngineStats HistogramEngine::Stats() const { return GlobalStats(KeyStates()); }

EngineStats HistogramEngine::GlobalStats(
    const std::vector<KeyState*>& states) const {
  EngineStats stats;
  stats.keys = states.size();
  for (const KeyState* state : states) AccumulateStats(*state, &stats);
  stats.unknown_queries = unknown_queries_.load(std::memory_order_acquire);
  stats.queries += stats.unknown_queries;
  return stats;
}

EngineStats HistogramEngine::Stats(std::string_view key) const {
  const KeyHandle handle = Find(key);
  return handle.valid() ? Stats(handle) : EngineStats{};
}

EngineStats HistogramEngine::Stats(const KeyHandle& handle) const {
  DH_CHECK(handle.valid());
  EngineStats stats;
  stats.keys = 1;
  AccumulateStats(*handle.state_, &stats);
  return stats;
}

telemetry::MetricsSnapshot HistogramEngine::CollectMetrics() const {
  // Engine-wide gauges and distributions first, then everything read off
  // the key states with registry_mu_ released.
  telemetry::MetricsSnapshot snapshot;
  snapshot.samples = {
      {"dynhist_engine_publish_queue_depth",
       "Publish requests currently queued", kGauge, {},
       static_cast<double>(PublishQueueDepth())},
      {"dynhist_trace_events_recorded_total",
       "Events ever recorded into the trace ring", kCounter, {},
       static_cast<double>(trace_.recorded())},
      {"dynhist_trace_events_dropped_total",
       "Trace events overwritten before being read", kCounter, {},
       static_cast<double>(trace_.dropped())},
  };
  const auto add_histogram = [&](const char* name, const char* help,
                                 const telemetry::LogHistogram& histogram) {
    snapshot.histograms.push_back({name, help, {}, histogram.Snapshot()});
  };
  add_histogram("dynhist_publish_latency_ns",
                "Publication duration (flush + merge + snapshot swap) in ns",
                publish_latency_hist_);
  add_histogram("dynhist_publish_queue_wait_ns",
                "Time publish requests spent queued (enqueue to drain) in ns",
                queue_wait_hist_);
  add_histogram("dynhist_ingest_batch_ops",
                "Operations per drained shard batch", ingest_batch_hist_);
  add_histogram(
      "dynhist_coalesce_run_length",
      "Data operations collapsed per coalesced value group (groups >= 2)",
      coalesce_run_hist_);
  add_histogram(
      "dynhist_query_latency_ns",
      "Estimate-read latency in ns, sampled every 1024th query per key",
      query_latency_hist_);
  std::vector<KeyState*> states = KeyStates();
  const EngineStats stats = GlobalStats(states);
  for (const CounterRow& row : kCounterTable) {
    if (row.engine_series == nullptr) continue;
    snapshot.samples.push_back({row.engine_series, row.help, row.kind, {},
                                static_cast<double>(stats.*row.stat)});
  }

  // Per-key series, in key-name order so dumps are deterministic.
  std::sort(states.begin(), states.end(),
            [](const KeyState* a, const KeyState* b) {
              return a->name < b->name;
            });
  const auto gap = [](std::uint64_t ahead, std::uint64_t behind) {
    return ahead > behind ? static_cast<double>(ahead - behind) : 0.0;
  };
  const std::uint64_t now_ns = telemetry_on_ ? trace_.NowNs() : 0;
  for (const KeyState* state : states) {
    const telemetry::Labels labels = {{"key", state->name}};
    const auto add = [&](const char* name, const char* help, MetricKind kind,
                         double value) {
      snapshot.samples.push_back({name, help, kind, labels, value});
    };
    const AcceptCounts accepted = AcceptedOf(*state);
    for (const CounterRow& row : kCounterTable) {
      if (row.key_series == nullptr) continue;
      add(row.key_series, row.help, row.kind,
          static_cast<double>(KeyValue(row, *state, accepted)));
    }
    add("dynhist_key_snapshot_epoch",
        "Published snapshot epoch (0 = never published)", kGauge,
        static_cast<double>(state->epoch.load(std::memory_order_relaxed)));
    add("dynhist_key_lease_staleness_versions",
        "Publications not yet observed by any reader lease (0 while the "
        "reader fleet is current)",
        kGauge,
        gap(state->version.load(std::memory_order_relaxed),
            state->last_leased_version.load(std::memory_order_relaxed)));
    add("dynhist_key_staleness_updates",
        "Accepted updates not yet covered by the published snapshot", kGauge,
        gap(state->update_count.load(std::memory_order_relaxed),
            state->published_at.load(std::memory_order_relaxed)));
    add("dynhist_key_staleness_seconds",
        "Seconds since the last publication (since engine start when "
        "never published; 0 without telemetry)",
        kGauge,
        gap(now_ns, state->last_publish_ns.load(std::memory_order_relaxed)) /
            1e9);
    add("dynhist_key_buffered_ops",
        "Operations in shard buffers not yet applied to shard histograms",
        kGauge, static_cast<double>(BufferedOpsOf(*state)));
    // Feedback convergence observable: the gap between what the published
    // snapshot estimated and what the predicate actually returned.
    // Exposed for every key so a key's series set is stable; recorded
    // only when telemetry is on (see RecordFeedback).
    snapshot.histograms.push_back(
        {"dynhist_key_feedback_abs_error",
         "Absolute range-estimate error |published estimate - actual| "
         "observed at feedback time",
         labels, state->feedback_error.Snapshot()});
  }
  return snapshot;
}

void HistogramEngine::WriteMetricsPrometheus(std::string* out) const {
  telemetry::WritePrometheus(CollectMetrics(), out);
}

void HistogramEngine::WriteMetricsJson(std::string* out) const {
  telemetry::WriteJson(CollectMetrics(), out);
}

void HistogramEngine::WriteTraceJson(std::string* out) const {
  trace_.DumpChromeTracing(out);
}

void HistogramEngine::MaybeAutoPublish(KeyState& state) {
  const std::int64_t every =
      state.snapshot_every.load(std::memory_order_relaxed);
  if (every <= 0) return;
  const std::uint64_t count =
      state.update_count.load(std::memory_order_relaxed);
  if (state.async_publish.load(std::memory_order_relaxed) &&
      !workers_stopped_.load(std::memory_order_acquire)) {
    // Async cadence measures from the newer of "last published" and "last
    // requested": a queued request already covers everything up to
    // requested_at, so only genuinely new updates re-trip.
    const std::uint64_t baseline =
        std::max(state.published_at.load(std::memory_order_relaxed),
                 state.requested_at.load(std::memory_order_relaxed));
    if (count - baseline < static_cast<std::uint64_t>(every)) return;
    // Once the pool is stopping, the trip publishes inline, as a sync key.
    if (EnqueuePublish(state, count, /*trip=*/true)) return;
  }
  const std::uint64_t published_at =
      state.published_at.load(std::memory_order_relaxed);
  if (count - published_at < static_cast<std::uint64_t>(every)) {
    return;
  }
  // try_lock: if another thread is already merging, this update's epoch
  // duty is covered by that merge — don't convoy writers on the publisher.
  std::unique_lock<std::mutex> lock(state.publish_mu, std::try_to_lock);
  if (!lock.owns_lock()) return;
  if (state.update_count.load(std::memory_order_relaxed) -
          state.published_at.load(std::memory_order_relaxed) <
      static_cast<std::uint64_t>(every)) {
    return;  // lost the race to a concurrent publisher
  }
  Publish(state, std::move(lock), "sync");
}

bool HistogramEngine::EnqueuePublish(KeyState& state, std::uint64_t count,
                                     bool trip) {
  // A max, not a store: a trip or tick that read an older count must not
  // lower the watermark a newer one asked the pending request for.
  BumpMax(state.requested_at, count);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    // Under queue_mu_, so nothing joins the queue once the stop has begun.
    if (queue_stopping_) return false;
    if (state.publish_pending.exchange(true, std::memory_order_acq_rel)) {
      // The pending request publishes the key's newest state, so a trip
      // rides along free (a tick is not a trip and is not counted).
      if (trip) {
        state.counters.publish_coalesced.fetch_add(
            1, std::memory_order_release);
      }
      return true;
    }
    // Stamp the enqueue time before the request becomes poppable (the
    // queue mutex orders this store before the worker's read).
    if (telemetry_on_) {
      state.enqueued_at_ns.store(trace_.NowNs(), std::memory_order_relaxed);
    }
    publish_queue_.push_back(&state);
    EnsureWorkersLocked();
  }
  state.counters.publish_queued.fetch_add(1, std::memory_order_release);
  queue_cv_.notify_one();
  return true;
}

void HistogramEngine::EnsureWorkersLocked() {
  if (workers_spawned_ || options_.merge_workers <= 0) return;
  workers_spawned_ = true;
  workers_.reserve(static_cast<std::size_t>(options_.merge_workers));
  for (int i = 0; i < options_.merge_workers; ++i) {
    const bool ticks = i == 0 && options_.background_interval_ms > 0;
    workers_.emplace_back([this, ticks] { MergeWorkerLoop(ticks); });
  }
}

bool HistogramEngine::RunOneQueuedPublish() {
  KeyState* state = nullptr;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (publish_queue_.empty()) return false;
    state = publish_queue_.front();
    publish_queue_.pop_front();
    ++publishes_in_flight_;
  }
  // Clear pending *before* merging: a cadence trip from here on enqueues a
  // fresh request rather than coalescing into this one, so no trip is ever
  // absorbed by a merge that has already read its watermark. The clear is
  // an acq_rel exchange, not a plain store: it reads the last coalescer's
  // exchange(true) and thereby acquires that trip's earlier requested_at
  // update, so the skip check below can never act on a stale requested_at
  // and elide a merge a coalesced trip still needs.
  state->publish_pending.exchange(false, std::memory_order_acq_rel);
  if (telemetry_on_) {
    // Queue wait is accounted whether the drained request publishes or
    // is elided — it is a queue property, not a merge property.
    const std::uint64_t enqueued =
        state->enqueued_at_ns.load(std::memory_order_relaxed);
    const std::uint64_t now = trace_.NowNs();
    const std::uint64_t wait = now > enqueued ? now - enqueued : 0;
    queue_wait_hist_.Record(wait);
    state->counters.queue_wait_nanos.fetch_add(wait,
                                               std::memory_order_release);
  }
  if (state->published_at.load(std::memory_order_relaxed) >=
      state->requested_at.load(std::memory_order_relaxed)) {
    // An inline RefreshSnapshot()/RefreshAll() (or a merge absorbing a
    // coalesced trip) already published past every update this request
    // asked for — the merge would republish identical state; elide it.
    state->counters.publish_skipped.fetch_add(1,
                                              std::memory_order_release);
  } else {
    Publish(*state, "async");
    state->counters.async_publishes.fetch_add(1,
                                              std::memory_order_release);
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    --publishes_in_flight_;
    if (publish_queue_.empty() && publishes_in_flight_ == 0) {
      drain_cv_.notify_all();
    }
  }
  return true;
}

void HistogramEngine::MergeWorkerLoop(bool ticks) {
  using Clock = std::chrono::steady_clock;
  const auto interval =
      std::chrono::milliseconds(options_.background_interval_ms);
  Clock::time_point next_tick = Clock::now() + interval;
  while (true) {
    bool tick = false;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      const auto ready = [this] {
        return queue_stopping_ || !publish_queue_.empty();
      };
      if (ticks) {
        // The deadline is checked between publishes too, so a queue kept
        // busy by cadence trips cannot starve the ticks.
        queue_cv_.wait_until(lock, next_tick, ready);
        tick = !queue_stopping_ && Clock::now() >= next_tick;
      } else {
        queue_cv_.wait(lock, ready);
      }
      // Stop only once the queue is drained: requests accepted before the
      // stop are commitments (stop-while-queued drain semantics).
      if (queue_stopping_ && publish_queue_.empty()) return;
    }
    if (tick) {  // enqueue every key with unpublished updates
      for (KeyState* state : KeyStates()) {
        const std::uint64_t count =
            state->update_count.load(std::memory_order_relaxed);
        if (count > state->published_at.load(std::memory_order_relaxed)) {
          EnqueuePublish(*state, count, /*trip=*/false);
        }
      }
      next_tick = Clock::now() + interval;
    }
    RunOneQueuedPublish();
  }
}

std::size_t HistogramEngine::PumpPublishes(std::size_t max_requests) {
  std::size_t ran = 0;
  while (ran < max_requests && RunOneQueuedPublish()) ++ran;
  return ran;
}

void HistogramEngine::DrainPublishes() {
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    if (workers_spawned_) {
      drain_cv_.wait(lock, [this] {
        return publish_queue_.empty() && publishes_in_flight_ == 0;
      });
      return;
    }
  }
  PumpPublishes();  // manual-pump mode: drain inline
}

void HistogramEngine::StopPublishWorkers() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  workers_stopped_.store(true, std::memory_order_release);
  // Manual-pump mode: drain the queue inline so nothing queued is lost.
  PumpPublishes();
}

std::size_t HistogramEngine::PublishQueueDepth() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return publish_queue_.size();
}

std::size_t HistogramEngine::BufferedOps(std::string_view key) const {
  const KeyState* state = FindKey(key);
  return state == nullptr ? 0 : BufferedOpsOf(*state);
}

void HistogramEngine::SetKeyOptions(std::string_view key,
                                    const KeyOptionOverrides& o) {
  // The string form is where the backend selector can act: if this call
  // creates the key, its shards are built with the overridden kind. On
  // an existing key `backend` is ignored (shard layout is immutable).
  SetKeyOptions(KeyHandle(FindOrCreateKey(key, o.backend)), o);
}

void HistogramEngine::SetKeyOptions(const KeyHandle& handle,
                                    const KeyOptionOverrides& o) {
  DH_CHECK(handle.valid());
  KeyState* state = handle.state_;
  if (o.snapshot_every) {
    DH_CHECK(*o.snapshot_every >= 0);
    state->snapshot_every.store(*o.snapshot_every,
                                std::memory_order_relaxed);
  }
  if (o.merged_buckets) {
    DH_CHECK(*o.merged_buckets >= 0);
    state->merged_buckets.store(*o.merged_buckets,
                                std::memory_order_relaxed);
  }
  if (o.async_publish) {
    state->async_publish.store(*o.async_publish, std::memory_order_relaxed);
  }
}

EngineOptions HistogramEngine::EffectiveOptions(std::string_view key) const {
  const KeyHandle handle = Find(key);
  return handle.valid() ? EffectiveOptions(handle) : options_;
}

EngineOptions HistogramEngine::EffectiveOptions(
    const KeyHandle& handle) const {
  DH_CHECK(handle.valid());
  const KeyState* state = handle.state_;
  EngineOptions effective = options_;
  effective.kind = state->kind;
  effective.snapshot_every =
      state->snapshot_every.load(std::memory_order_relaxed);
  effective.merged_buckets =
      state->merged_buckets.load(std::memory_order_relaxed);
  effective.async_publish =
      state->async_publish.load(std::memory_order_relaxed);
  return effective;
}

EngineSnapshot HistogramEngine::Publish(KeyState& state,
                                        const char* trigger) {
  return Publish(state, std::unique_lock<std::mutex>(state.publish_mu),
                 trigger);
}

EngineSnapshot HistogramEngine::Publish(
    KeyState& state, std::unique_lock<std::mutex> publish_lock,
    const char* trigger) {
  DH_CHECK(publish_lock.owns_lock());
  const std::uint64_t start_ns = trace_.NowNs();
  // Conservative watermark: updates pushed after this load simply count
  // toward the next publication even if this merge happens to absorb them.
  const std::uint64_t watermark =
      state.update_count.load(std::memory_order_relaxed);

  PublishScratch& scratch = ThreadPublishScratch();
  std::vector<HistogramModel>& models = scratch.models;
  models.clear();
  for (const auto& shard : state.shards) {
    HistogramModel model = shard->ExportModel();
    if (!model.Empty()) models.push_back(std::move(model));
  }
  const std::uint64_t exported_ns =
      telemetry_on_ ? trace_.NowNs() : start_ns;

  const HistogramModel merged = scratch.merger.MergeAndReduce(
      models, state.merged_buckets.load(std::memory_order_relaxed));
  const std::uint64_t merged_ns =
      telemetry_on_ ? trace_.NowNs() : start_ns;

  const ShardStages stages{exported_ns, merged_ns};
  return PublishTail(state, merged, watermark, trigger, start_ns, &stages);
}

EngineSnapshot HistogramEngine::PublishTail(KeyState& state,
                                            const HistogramModel& model,
                                            std::uint64_t watermark,
                                            const char* trigger,
                                            std::uint64_t start_ns,
                                            const ShardStages* stages) {
  // The VersionedModel compiles the flat query arena: O(pieces) — a few
  // microseconds against the ~120 us merge — so the publish-latency
  // envelope is unchanged.
  const std::uint64_t epoch =
      state.epoch.fetch_add(1, std::memory_order_relaxed) + 1;
  auto versioned =
      std::make_shared<const VersionedModel>(model, epoch, watermark);
  state.published.store(versioned, std::memory_order_release);
  // Lease validation stamp, bumped strictly AFTER the pointer swap: a
  // reader that acquire-loads the new version is guaranteed to observe
  // (at least) this publication in `published` — the invariant the
  // thread-local lease cache's hit path rests on (snapshot_lease.h).
  state.version.fetch_add(1, std::memory_order_release);
  if (stages != nullptr) {
    state.published_at.store(watermark, std::memory_order_relaxed);
  }
  state.counters.publishes.fetch_add(1, std::memory_order_release);

  const std::uint64_t end_ns = trace_.NowNs();
  const std::uint64_t nanos = end_ns - start_ns;
  state.counters.publish_nanos.fetch_add(nanos, std::memory_order_release);
  BumpMax(state.counters.max_publish_nanos, nanos);
  if (telemetry_on_) {
    state.last_publish_ns.store(end_ns, std::memory_order_relaxed);
    publish_latency_hist_.Record(nanos);
    if (trace_.enabled()) {
      const char* key = state.name.c_str();
      if (stages != nullptr) {
        trace_.Record({telemetry::TraceEventKind::kFlush, key, trigger,
                       epoch, start_ns, stages->exported_ns - start_ns, 0});
        trace_.Record({telemetry::TraceEventKind::kMerge, key, trigger,
                       epoch, stages->exported_ns,
                       stages->merged_ns - stages->exported_ns, 0});
      }
      trace_.Record({telemetry::TraceEventKind::kPublish, key, trigger,
                     epoch, start_ns, nanos, 0});
    }
  }
  return EngineSnapshot(std::move(versioned));
}

}  // namespace dynhist::engine
