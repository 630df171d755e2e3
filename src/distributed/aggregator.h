// Multi-site aggregator: decoded frames in, one global engine out.
//
// The §8 result this tier operationalizes: a union-level histogram of
// k shared-nothing sites is the superposition of the sites' local
// histograms, reduced back to the bucket budget — "histogram + union",
// moving O(buckets) bytes per site instead of the data. The aggregator
// treats k sites exactly like the engine treats k ingest shards: per
// key it keeps each site's latest decoded model, and every applied
// frame re-runs Superimpose + ReduceWithSsbm over the sites (in
// ascending site-id order, so the merge is a deterministic function of
// the site models) and publishes the result through a normal
// HistogramEngine via PublishExternal — global queries ride the
// compiled-arena + KeyHandle fast path unchanged.
//
// Idempotence: the watermark in each frame is the site key's
// accepted-update count at publication, so "newer" is a total order
// per (site, key). A frame whose watermark does not advance past the
// stored one is counted and dropped without touching the merge path —
// re-sends and reordered stale frames cost zero merges (the bench
// gates this exactly).
//
// Telemetry: per-site frame/byte/staleness instruments plus global
// merge/reject counters, registered in an owned MetricsRegistry and
// rendered with the standard exposition writers. The logical counters
// are plain atomics (the source of truth for gates); the registry
// reads them through callbacks at scrape time.

#ifndef DYNHIST_DISTRIBUTED_AGGREGATOR_H_
#define DYNHIST_DISTRIBUTED_AGGREGATOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/distributed/frame.h"
#include "src/distributed/global_histogram.h"
#include "src/engine/engine_options.h"
#include "src/engine/histogram_engine.h"
#include "src/telemetry/registry.h"

namespace dynhist::distributed {

class Aggregator {
 public:
  struct Options {
    /// Bucket budget of the published global view (<= 0 keeps the
    /// unreduced composite).
    std::int64_t merged_buckets = 64;

    /// Options of the global-view engine. Defaults disable ingest-side
    /// cadence (the aggregator publishes externally; nothing flows
    /// through shards).
    engine::EngineOptions engine;

    Options();
  };

  /// What happened to one ingested frame.
  enum class IngestResult {
    kApplied,    ///< new high-watermark: site slot replaced, global
                 ///< view re-merged and republished
    kDuplicate,  ///< watermark did not advance; dropped, zero merges
    kRejected,   ///< frame failed validation (see the FrameError)
  };

  explicit Aggregator(Options options = Options());

  /// Decodes and applies one frame. Thread-safe; applied frames
  /// republish the key's global view before returning (the sender's
  /// acknowledgement means "merged and visible"). The decode error, if
  /// any, lands in *frame_error.
  IngestResult Ingest(std::string_view frame_bytes,
                      FrameError* frame_error = nullptr);

  /// The engine serving the merged global view; query it like any
  /// engine (Resolve + EstimateRange is the server's per-connection
  /// pattern).
  engine::HistogramEngine& engine() { return engine_; }
  const engine::HistogramEngine& engine() const { return engine_; }

  // Logical counters (exact; the bench gates duplicates == zero merges
  // on these).
  std::uint64_t frames_received() const { return frames_received_.load(); }
  std::uint64_t frames_applied() const { return frames_applied_.load(); }
  std::uint64_t frames_duplicate() const { return frames_duplicate_.load(); }
  std::uint64_t frames_rejected() const { return frames_rejected_.load(); }
  std::uint64_t bytes_received() const { return bytes_received_.load(); }
  /// Superimpose+reduce+publish rounds actually run.
  std::uint64_t merges() const { return merges_.load(); }

  /// Distinct sites / keys seen so far.
  std::size_t NumSites() const { return num_sites_.load(); }
  std::size_t NumKeys() const { return num_keys_.load(); }

  /// Appends the aggregator's Prometheus exposition (per-site frame
  /// counters, staleness gauges, global merge/reject counters) to
  /// *out. The global-view engine's own exposition is separate
  /// (engine().WriteMetricsPrometheus); the server concatenates both.
  void WriteMetricsPrometheus(std::string* out) const;

 private:
  // One site's high watermark for one key.
  struct SiteSlot {
    std::uint32_t site_id = 0;
    std::uint64_t watermark = 0;
  };

  // Per-key merge state: each site's latest decoded model, ascending by
  // site id — `models` is the merger's input as it stands, in the
  // deterministic merge order the bit-identical contract (and the
  // loopback test's in-process replica) depends on. `slots[i]` belongs
  // to `models[i]`.
  struct KeyEntry {
    std::vector<SiteSlot> slots;
    std::vector<HistogramModel> models;
    SnapshotMerger merger;
  };

  // Per-site telemetry (atomics read by registry callbacks; pointers
  // into site_stats_ stay valid because entries are never erased).
  struct SiteStats {
    std::atomic<std::uint64_t> frames_received{0};
    std::atomic<std::uint64_t> frames_applied{0};
    std::atomic<std::uint64_t> frames_duplicate{0};
    std::atomic<std::uint64_t> bytes_received{0};
    std::atomic<std::uint64_t> last_frame_ns{0};  // 0 = never
  };

  // Finds or creates the site's stats, registering its instruments on
  // first sight. Called under mu_.
  SiteStats& SiteStatsFor(std::uint32_t site_id);

  std::uint64_t NowNs() const;

  const Options options_;

  // Registry first: callbacks hold pointers into site_stats_, and
  // members destroy in reverse order, so the registry (and with it
  // every callback) dies before the atomics it reads.
  telemetry::MetricsRegistry metrics_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, KeyEntry> keys_;
  std::map<std::uint32_t, std::unique_ptr<SiteStats>> site_stats_;

  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> frames_applied_{0};
  std::atomic<std::uint64_t> frames_duplicate_{0};
  std::atomic<std::uint64_t> frames_rejected_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
  std::atomic<std::uint64_t> merges_{0};
  // Sizes of site_stats_ / keys_ mirrored into atomics so the scrape
  // callbacks (which run under the registry mutex) never touch mu_ —
  // Ingest registers instruments while holding mu_, so a callback that
  // locked mu_ would order the two mutexes both ways.
  std::atomic<std::size_t> num_sites_{0};
  std::atomic<std::size_t> num_keys_{0};

  const std::chrono::steady_clock::time_point start_;

  engine::HistogramEngine engine_;
};

}  // namespace dynhist::distributed

#endif  // DYNHIST_DISTRIBUTED_AGGREGATOR_H_
