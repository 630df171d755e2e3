// The traced run's layer ladder: per-layer costs measured on each
// workload's own inputs and outputs, outside the live run, plus the
// helpers that read the engine's public counters and trace ring.

#ifndef PERFBENCH_LADDER_H_
#define PERFBENCH_LADDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "src/engine/histogram_engine.h"
#include "src/histogram/model.h"

namespace perfbench {

/// Encoded update: v >= 0 inserts v, a negative e deletes ~e.
inline std::int64_t EncodeDelete(std::int64_t v) { return ~v; }
inline bool IsDelete(std::int64_t e) { return e < 0; }
inline std::int64_t OpValue(std::int64_t e) { return e < 0 ? ~e : e; }

struct LadderInput {
  /// A prefix of one writer's update stream, in issue order (so every
  /// delete follows its insert).
  std::vector<std::int64_t> ops;
  /// Values lie in [0, domain).
  std::int64_t domain = 0;
  /// The workload's data backend.
  dynhist::engine::ShardHistogramKind kind =
      dynhist::engine::ShardHistogramKind::kDynamicAdo;
  /// The workload's query ranges.
  std::vector<dynhist::engine::RangeQuery> queries;
  /// The run's final published models (one per key).
  std::vector<dynhist::HistogramModel> published;
};

/// Replays the input through standalone shards, the merge pipeline, the
/// compiled arena, the frame codec and an in-process aggregator, and
/// sets the histogram.*, merge.*, frame.*, aggregator.* and
/// engine.flush_ns.* metrics. `live_publish_p50_ns` is the engine's own
/// publish time, against which the ladder's publish steps are reconciled
/// (bench.reconcile.publish_gap_pct).
void RunLadder(const LadderInput& in, double live_publish_p50_ns,
               Metrics* m);

/// Stats() difference b - a, field by field (counters only).
dynhist::engine::EngineStats StatsDelta(const dynhist::engine::EngineStats& a,
                                        const dynhist::engine::EngineStats& b);

/// engine.publish_* from the trace ring events and the Stats delta of the
/// traced phase, engine.unknown_queries / fallback_queries, and the lease
/// hit ratio when the phase made handle reads. Returns the publish p50.
double EngineLayerMetrics(const dynhist::engine::HistogramEngine& engine,
                          const dynhist::engine::EngineStats& delta,
                          Metrics* m);

/// Times public engine calls the live run did not make, against the
/// run's final engine state: Resolve, and the string / handle estimate
/// paths when `string_path` / `handle_path` (timed runs of 64 over
/// `queries` spread across `keys`). Sets the matching engine.* metrics
/// and the lease hit ratio when the probe made the handle reads.
void EngineProbe(dynhist::engine::HistogramEngine& engine,
                 const std::vector<std::string>& keys,
                 const std::vector<dynhist::engine::RangeQuery>& queries,
                 bool string_path, bool handle_path, Metrics* m);

/// Times `reps` Prometheus scrapes of `engine` (telemetry.scrape_ms,
/// telemetry.exposition_bytes).
void ScrapeProbe(const dynhist::engine::HistogramEngine& engine, int reps,
                 Metrics* m);

/// For a workload that runs no wire tier: ships the engine's published
/// state to a loopback FrameServer for a few rounds (the first ships
/// every key, the rest are forced re-ships the aggregator drops as
/// duplicates) and sets the shipper.* / net.* / frame_server.* metrics.
/// The wire reconciliation does not apply (gap -1).
void WireProbe(dynhist::engine::HistogramEngine& engine, Metrics* m);

/// p50/p99 of a latency histogram as "<name>.p50" / "<name>.p99".
void SetPercentiles(Metrics* m, const std::string& name, const LatHist& h,
                    const std::string& unit);

}  // namespace perfbench

#endif  // PERFBENCH_LADDER_H_
