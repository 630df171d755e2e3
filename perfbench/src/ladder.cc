#include "ladder.h"

#include <algorithm>
#include <memory>
#include <unordered_set>

#include "src/data/frequency_vector.h"
#include "src/distributed/aggregator.h"
#include "src/distributed/frame_client.h"
#include "src/distributed/frame_server.h"
#include "src/distributed/site_shipper.h"
#include "src/distributed/frame.h"
#include "src/distributed/global_histogram.h"
#include "src/engine/shard.h"
#include "src/histogram/compiled_snapshot.h"
#include "src/histogram/st_feedback.h"

namespace perfbench {

namespace {

using dynhist::CompiledSnapshot;
using dynhist::HistogramModel;
using dynhist::UpdateOp;
using dynhist::engine::EngineOptions;
using dynhist::engine::EngineShard;
using dynhist::engine::ShardHistogramKind;

UpdateOp ToOp(std::int64_t e) {
  return IsDelete(e) ? UpdateOp::Delete(OpValue(e)) : UpdateOp::Insert(e);
}

EngineOptions ShardOptions(ShardHistogramKind kind) {
  EngineOptions o;
  o.kind = kind;
  return o;
}

// Replays `ops` through one standalone shard; ns per operation.
double ApplyNsPerOp(const std::vector<std::int64_t>& ops,
                    ShardHistogramKind kind) {
  std::vector<double> reps;
  for (int r = 0; r < 3; ++r) {
    EngineShard shard(ShardOptions(kind));
    const std::uint64_t t0 = NowNs();
    for (const std::int64_t e : ops) shard.Push(ToOp(e));
    shard.Flush();
    reps.push_back(static_cast<double>(NowNs() - t0) /
                   static_cast<double>(ops.size()));
  }
  return Median(reps);
}

}  // namespace

void SetPercentiles(Metrics* m, const std::string& name, const LatHist& h,
                    const std::string& unit) {
  m->Set(name + ".p50", h.Percentile(0.50), unit);
  m->Set(name + ".p99", h.Percentile(0.99), unit);
}

void WireProbe(dynhist::engine::HistogramEngine& engine, Metrics* m) {
  using namespace dynhist::distributed;
  FrameServer server;
  FrameClient client;
  std::string error;
  bool ok = server.Start(&error) &&
            client.Connect("127.0.0.1", server.port(), &error);
  SiteShipper shipper(&engine, 1);
  LatHist refresh_h, ship_h, rtt_h;
  const SiteShipper::Sink sink = [&](std::string_view frame) {
    const std::uint64_t t0 = NowNs();
    const bool sent = client.ShipFrame(frame);
    rtt_h.Record(NowNs() - t0);
    ok = ok && sent;
    return sent;
  };
  // The first round ships every key; the forced re-ships that follow
  // are acknowledged as duplicates.
  for (int round = 0; ok && round < 8; ++round) {
    std::uint64_t t0 = NowNs();
    engine.RefreshAll();
    refresh_h.Record(NowNs() - t0);
    t0 = NowNs();
    shipper.Ship(sink, round > 0);
    ship_h.Record(NowNs() - t0);
  }
  m->Set("shipper.refresh_ns.p50", refresh_h.Percentile(0.5), "ns");
  m->Set("shipper.ship_ns.p50", ship_h.Percentile(0.5), "ns");
  m->Set("shipper.frames_shipped",
         static_cast<double>(shipper.frames_shipped()), "count");
  m->Set("shipper.frames_skipped",
         static_cast<double>(shipper.frames_skipped()), "count");
  m->Set("net.ship_rtt_us.p50", rtt_h.Percentile(0.50) / 1e3, "us");
  m->Set("net.ship_rtt_us.p99", rtt_h.Percentile(0.99) / 1e3, "us");
  m->Set("frame_server.protocol_errors",
         static_cast<double>(server.protocol_errors() + (ok ? 0 : 1)),
         "count");
  m->Set("bench.reconcile.wire_modeled_ms", 0.0, "ms");
  m->Set("bench.reconcile.wire_gap_pct", -1.0, "%");
}

void RunLadder(const LadderInput& in, double live_publish_p50_ns,
               Metrics* m) {
  const std::vector<std::int64_t>& ops = in.ops;

  // ---- histogram: per-op apply cost of each data backend on this stream.
  m->Set("histogram.dado.apply_ns_per_op",
         ApplyNsPerOp(ops, ShardHistogramKind::kDynamicAdo), "ns");
  m->Set("histogram.dc.apply_ns_per_op",
         ApplyNsPerOp(ops, ShardHistogramKind::kDynamicCompressed), "ns");

  // engine.flush_ns: draining one full batch (batch_size - 1 buffered ops
  // plus the Flush) into the workload's backend.
  {
    EngineShard shard(ShardOptions(in.kind));
    const int batch = EngineOptions{}.batch_size - 1;
    LatHist h;
    for (std::size_t i = 0; i + batch <= ops.size(); i += batch) {
      for (int j = 0; j < batch; ++j) shard.Push(ToOp(ops[i + j]));
      const std::uint64_t t0 = NowNs();
      shard.Flush();
      h.Record(NowNs() - t0);
    }
    SetPercentiles(m, "engine.flush_ns", h, "ns");
  }

  // Coalescing leverage: distinct values per 64-op batch of the stream.
  {
    double ratio_sum = 0.0;
    std::size_t batches = 0;
    std::unordered_set<std::int64_t> distinct;
    for (std::size_t i = 0; i + 64 <= ops.size(); i += 64) {
      distinct.clear();
      for (std::size_t j = i; j < i + 64; ++j) distinct.insert(OpValue(ops[j]));
      ratio_sum += static_cast<double>(distinct.size()) / 64.0;
      ++batches;
    }
    m->Set("histogram.batch_distinct_ratio",
           batches ? ratio_sum / static_cast<double>(batches) : 1.0, "ratio");
  }

  // ST-FEEDBACK: one feedback observation against the stream's truth.
  {
    dynhist::FrequencyVector truth(in.domain);
    for (const std::int64_t e : ops) {
      if (IsDelete(e)) {
        truth.Delete(OpValue(e));
      } else {
        truth.Insert(e);
      }
    }
    dynhist::StFeedbackConfig config;
    config.buckets = EngineOptions{}.shard_buckets;
    config.domain_lo = 0;
    config.domain_hi = in.domain - 1;
    dynhist::StFeedbackHistogram stf(config);
    LatHist h;
    const std::size_t n = std::min<std::size_t>(in.queries.size(), 1 << 14);
    for (std::size_t i = 0; i + 64 <= n; i += 64) {
      const std::uint64_t t0 = NowNs();
      for (std::size_t j = i; j < i + 64; ++j) {
        const auto& q = in.queries[j];
        stf.ApplyFeedback(q.lo, q.hi,
                          static_cast<double>(truth.RangeCount(q.lo, q.hi)));
      }
      h.Record((NowNs() - t0) / 64);
    }
    m->Set("histogram.stf.feedback_ns", h.Percentile(0.5), "ns");
  }

  // ---- merge + local publish ladder: the engine's 8-shard publish,
  // step by step, on shards fed this stream.
  {
    const EngineOptions defaults;
    std::vector<std::unique_ptr<EngineShard>> shards;
    for (int s = 0; s < defaults.shards; ++s) {
      shards.push_back(std::make_unique<EngineShard>(ShardOptions(in.kind)));
    }
    for (const std::int64_t e : ops) {
      const auto v = static_cast<std::uint64_t>(OpValue(e));
      shards[(v * 0x9E3779B97F4A7C15ULL) >> 61 & 7]->Push(ToOp(e));
    }
    dynhist::distributed::SnapshotMerger merger;
    LatHist export_h, superimpose_h, reduce_h, compile_h;
    double composite_pieces = 0.0;
    for (int r = 0; r < 40; ++r) {
      std::uint64_t t0 = NowNs();
      std::vector<HistogramModel> models;
      for (const auto& shard : shards) {
        HistogramModel model = shard->ExportModel();
        if (!model.Empty()) models.push_back(std::move(model));
      }
      std::uint64_t t1 = NowNs();
      const HistogramModel composite = merger.Superimpose(models);
      std::uint64_t t2 = NowNs();
      const HistogramModel reduced = dynhist::distributed::ReduceWithSsbm(
          composite, defaults.merged_buckets);
      std::uint64_t t3 = NowNs();
      const CompiledSnapshot compiled = CompiledSnapshot::Compile(reduced);
      std::uint64_t t4 = NowNs();
      Consume(compiled.TotalCount());
      export_h.Record(t1 - t0);
      superimpose_h.Record(t2 - t1);
      reduce_h.Record(t3 - t2);
      compile_h.Record(t4 - t3);
      composite_pieces = static_cast<double>(composite.NumPieces());
    }
    m->Set("merge.superimpose_ns", superimpose_h.Percentile(0.5), "ns");
    m->Set("merge.reduce_ns", reduce_h.Percentile(0.5), "ns");
    m->Set("merge.composite_pieces", composite_pieces, "count");
    const double ladder_ns = export_h.Percentile(0.5) +
                             superimpose_h.Percentile(0.5) +
                             reduce_h.Percentile(0.5) +
                             compile_h.Percentile(0.5);
    m->Set("bench.reconcile.publish_ladder_ns", ladder_ns, "ns");
    m->Set("bench.reconcile.publish_gap_pct",
           live_publish_p50_ns > 0
               ? 100.0 * (ladder_ns - live_publish_p50_ns) / live_publish_p50_ns
               : -1.0,
           "%");
  }

  // ---- compiled arena of the published models.
  {
    LatHist compile_h, query_h;
    double pieces = 0.0;
    std::vector<CompiledSnapshot> compiled;
    for (int r = 0; r < 5; ++r) {
      for (const HistogramModel& model : in.published) {
        const std::uint64_t t0 = NowNs();
        CompiledSnapshot c = CompiledSnapshot::Compile(model);
        compile_h.Record(NowNs() - t0);
        if (r == 0) {
          pieces += static_cast<double>(model.NumPieces());
          compiled.push_back(std::move(c));
        }
      }
    }
    const std::size_t nq = in.queries.size();
    for (std::size_t i = 0; nq >= 64 && i < 4096; ++i) {
      const CompiledSnapshot& c = compiled[i % compiled.size()];
      const std::size_t base = (i * 64) % (nq - 63);
      double acc = 0.0;
      const std::uint64_t t0 = NowNs();
      for (std::size_t j = base; j < base + 64; ++j) {
        acc += c.EstimateRange(in.queries[j].lo, in.queries[j].hi);
      }
      query_h.Record((NowNs() - t0) / 64);
      Consume(acc);
    }
    m->Set("histogram.compile_ns", compile_h.Percentile(0.5), "ns");
    m->Set("histogram.pieces_published",
           pieces / static_cast<double>(std::max<std::size_t>(
                        1, in.published.size())),
           "count");
    m->Set("histogram.arena_query_ns", query_h.Percentile(0.5), "ns");
  }

  // ---- frame codec and in-process aggregator on the published models,
  // shipped as three sites.
  {
    using namespace dynhist::distributed;
    const std::size_t keys = std::min<std::size_t>(in.published.size(), 64);
    LatHist encode_h, decode_h, ingest_h;
    double bytes = 0.0;
    std::vector<std::string> frames;
    for (std::uint32_t site = 1; site <= 3; ++site) {
      for (std::size_t k = 0; k < keys; ++k) {
        FrameHeader header;
        header.site_id = site;
        header.key = "ladder." + std::to_string(k);
        header.epoch = 1;
        header.watermark = 1;
        const std::uint64_t t0 = NowNs();
        std::string frame = EncodeFrame(header, in.published[k]);
        const std::uint64_t t1 = NowNs();
        DecodedFrame decoded;
        const FrameError err = DecodeFrame(frame, &decoded);
        const std::uint64_t t2 = NowNs();
        encode_h.Record(t1 - t0);
        decode_h.Record(t2 - t1);
        bytes += static_cast<double>(frame.size());
        if (err == FrameError::kOk) frames.push_back(std::move(frame));
      }
    }
    Aggregator aggregator;
    const int rounds = static_cast<int>(std::max<std::size_t>(
        2, 1536 / std::max<std::size_t>(1, frames.size())));
    for (int r = 1; r <= rounds; ++r) {
      for (std::string& frame : frames) {
        frame_internal::PatchEpoch(&frame, static_cast<std::uint64_t>(r));
        frame_internal::PatchWatermark(&frame, static_cast<std::uint64_t>(r));
        frame_internal::PatchChecksum(&frame);
        const std::uint64_t t0 = NowNs();
        aggregator.Ingest(frame);
        ingest_h.Record(NowNs() - t0);
      }
    }
    m->Set("frame.encode_ns", encode_h.Percentile(0.5), "ns");
    m->Set("frame.decode_ns", decode_h.Percentile(0.5), "ns");
    m->Set("frame.bytes",
           bytes / static_cast<double>(std::max<std::size_t>(1, 3 * keys)),
           "bytes");
    m->Set("aggregator.ingest_ns", ingest_h.Percentile(0.5), "ns");
    // Counts of the ladder's aggregator; wire_fanin overrides them with
    // the live FrameServer's.
    m->Set("aggregator.frames_applied",
           static_cast<double>(aggregator.frames_applied()), "count");
    m->Set("aggregator.frames_duplicate",
           static_cast<double>(aggregator.frames_duplicate()), "count");
    m->Set("aggregator.frames_rejected",
           static_cast<double>(aggregator.frames_rejected()), "count");
    m->Set("aggregator.merges", static_cast<double>(aggregator.merges()),
           "count");
    m->Set("aggregator.frames_per_s",
           ingest_h.mean() > 0 ? 1e9 / ingest_h.mean() : 0.0, "frames/s");
  }
}

dynhist::engine::EngineStats StatsDelta(const dynhist::engine::EngineStats& a,
                                        const dynhist::engine::EngineStats& b) {
  dynhist::engine::EngineStats d = b;
  d.inserts -= a.inserts;
  d.deletes -= a.deletes;
  d.feedbacks -= a.feedbacks;
  d.queries -= a.queries;
  d.fallback_queries -= a.fallback_queries;
  d.unknown_queries -= a.unknown_queries;
  d.lease_hits -= a.lease_hits;
  d.lease_misses -= a.lease_misses;
  d.publishes -= a.publishes;
  d.publish_skipped -= a.publish_skipped;
  d.publish_rejected -= a.publish_rejected;
  d.publish_nanos -= a.publish_nanos;
  return d;
}

double EngineLayerMetrics(const dynhist::engine::HistogramEngine& engine,
                          const dynhist::engine::EngineStats& delta,
                          Metrics* m) {
  using dynhist::telemetry::TraceEventKind;
  LatHist publish_h, export_h, merge_h;
  for (const auto& e : engine.trace().Events()) {
    switch (e.kind) {
      case TraceEventKind::kPublish:
        publish_h.Record(e.duration_ns);
        break;
      case TraceEventKind::kMerge:
        merge_h.Record(e.duration_ns);
        break;
      case TraceEventKind::kFlush:
        if (std::string_view(e.trigger) != "manual") {
          export_h.Record(e.duration_ns);
        }
        break;
      default:
        break;
    }
  }
  SetPercentiles(m, "engine.publish_ns", publish_h, "ns");
  m->Set("engine.publish_export_ns", export_h.Percentile(0.5), "ns");
  m->Set("engine.publish_merge_ns", merge_h.Percentile(0.5), "ns");
  m->Set("engine.publishes", static_cast<double>(delta.publishes), "count");
  m->Set("engine.publish_skipped", static_cast<double>(delta.publish_skipped),
         "count");
  m->Set("engine.unknown_queries", static_cast<double>(delta.unknown_queries),
         "count");
  m->Set("engine.fallback_queries",
         static_cast<double>(delta.fallback_queries), "count");
  const std::uint64_t lease = delta.lease_hits + delta.lease_misses;
  if (lease > 0) {
    m->Set("engine.lease_hit_ratio",
           static_cast<double>(delta.lease_hits) / static_cast<double>(lease),
           "ratio");
  }
  return publish_h.Percentile(0.5);
}

void EngineProbe(dynhist::engine::HistogramEngine& engine,
                 const std::vector<std::string>& keys,
                 const std::vector<dynhist::engine::RangeQuery>& queries,
                 bool string_path, bool handle_path, Metrics* m) {
  LatHist resolve_h;
  std::vector<dynhist::engine::KeyHandle> handles;
  for (int r = 0; r < 8; ++r) {
    for (const std::string& key : keys) {
      const std::uint64_t t0 = NowNs();
      dynhist::engine::KeyHandle h = engine.Resolve(key);
      resolve_h.Record(NowNs() - t0);
      if (r == 0) handles.push_back(h);
    }
  }
  m->Set("engine.resolve_ns", resolve_h.Percentile(0.5), "ns");
  const std::size_t nq = queries.size();
  if (nq < 64 || keys.empty()) return;
  constexpr std::size_t kRuns = 8192;
  if (string_path) {
    LatHist h;
    for (std::size_t i = 0; i < kRuns; ++i) {
      const std::string& key = keys[i % keys.size()];
      const std::size_t base = (i * 64) % (nq - 63);
      double acc = 0.0;
      const std::uint64_t t0 = NowNs();
      for (std::size_t j = base; j < base + 64; ++j) {
        acc += engine.EstimateRange(key, queries[j].lo, queries[j].hi);
      }
      h.Record((NowNs() - t0) / 64);
      Consume(acc);
    }
    SetPercentiles(m, "engine.estimate_string_ns", h, "ns");
  }
  if (handle_path) {
    const dynhist::engine::EngineStats before = engine.Stats();
    LatHist h;
    for (std::size_t i = 0; i < kRuns; ++i) {
      const auto& handle = handles[i % handles.size()];
      const std::size_t base = (i * 64) % (nq - 63);
      double acc = 0.0;
      const std::uint64_t t0 = NowNs();
      for (std::size_t j = base; j < base + 64; ++j) {
        acc += engine.EstimateRange(handle, queries[j].lo, queries[j].hi);
      }
      h.Record((NowNs() - t0) / 64);
      Consume(acc);
    }
    SetPercentiles(m, "engine.estimate_handle_ns", h, "ns");
    const auto d = StatsDelta(before, engine.Stats());
    const std::uint64_t lease = d.lease_hits + d.lease_misses;
    m->Set("engine.lease_hit_ratio",
           lease ? static_cast<double>(d.lease_hits) /
                       static_cast<double>(lease)
                 : 0.0,
           "ratio");
  }
}

void ScrapeProbe(const dynhist::engine::HistogramEngine& engine, int reps,
                 Metrics* m) {
  LatHist h;
  std::size_t bytes = 0;
  for (int r = 0; r < reps; ++r) {
    std::string text;
    const std::uint64_t t0 = NowNs();
    engine.WriteMetricsPrometheus(&text);
    h.Record(NowNs() - t0);
    bytes = text.size();
  }
  m->Set("telemetry.scrape_ms", h.Percentile(0.5) / 1e6, "ms");
  m->Set("telemetry.exposition_bytes", static_cast<double>(bytes), "bytes");
}

}  // namespace perfbench
