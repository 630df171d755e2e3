// Tests of the engine's telemetry integration: per-key stats that sum to
// the global aggregate under concurrent writers and merge workers,
// queue-wait accounting, staleness gauges, per-key exposition series
// (a golden series inventory, and key creation racing a scrape),
// trace events for the publish lifecycle, and the telemetry-disabled
// mode (stats still counted, distributions and traces off).

#include "src/engine/histogram_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/engine/engine_options.h"
#include "src/telemetry/exposition.h"
#include "src/telemetry/trace_ring.h"
#include "tests/test_util.h"

namespace dynhist::engine {
namespace {

using dynhist::testing::ExpositionInventory;

// Deterministic manual-pump baseline: nothing publishes or drains unless
// the test says so.
EngineOptions ManualOptions() {
  EngineOptions options;
  options.shards = 2;
  options.batch_size = 4;
  options.snapshot_every = 0;
  options.merge_workers = 0;
  return options;
}

// The value of the exposition line starting `name` + ' ' (no labels), or
// -1 when the series is absent.
double MetricValue(const std::string& text, const std::string& name) {
  const std::string prefix = name + " ";
  std::size_t pos = 0;
  while ((pos = text.find(prefix, pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n') {
      return std::stod(text.substr(pos + prefix.size()));
    }
    pos += prefix.size();
  }
  return -1.0;
}

std::string Prometheus(const HistogramEngine& engine) {
  std::string text;
  engine.WriteMetricsPrometheus(&text);
  std::string error;
  EXPECT_TRUE(telemetry::SelfCheckPrometheus(text, &error)) << error;
  return text;
}

// ---- Exposition inventory -------------------------------------------------

// Per-key series are emitted in key-name order within every series
// name, whatever order the keys were created in.
void ExpectPerKeySeriesSorted(const std::string& text) {
  std::map<std::string, std::vector<std::string>> keys_by_series;
  std::size_t pos = 0;
  while ((pos = text.find("{key=\"", pos)) != std::string::npos) {
    const std::size_t line_start = text.rfind('\n', pos) + 1;
    const std::size_t value_start = pos + 6;
    const std::size_t value_end = text.find('"', value_start);
    keys_by_series[text.substr(line_start, pos - line_start)].push_back(
        text.substr(value_start, value_end - value_start));
    pos = value_end;
  }
  ASSERT_FALSE(keys_by_series.empty());
  for (const auto& [series, keys] : keys_by_series) {
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end())) << series;
  }
}

// A fixed script over a manual-pump engine with one DADO key (async
// cadence, one queued and one coalesced trip), one ST-FEEDBACK key, and
// one key fed by PublishExternal, created out of name order.
void RunInventoryScript(HistogramEngine& engine) {
  engine.SetKeyOptions("orders.amount",
                       {.snapshot_every = 8, .async_publish = true});
  for (int i = 0; i < 20; ++i) engine.Insert("orders.amount", i % 10);
  engine.Delete("orders.amount", 3);
  engine.PumpPublishes();
  engine.RecordFeedback("orders.amount", 0, 4, 9.0);
  engine.RefreshSnapshot("orders.amount");
  for (int q = 0; q < 5; ++q) engine.EstimateRange("orders.amount", q, 9);
  engine.Snapshot("orders.amount");

  engine.SetKeyOptions("lineitem.qty",
                       {.backend = ShardHistogramKind::kStFeedback});
  engine.EstimateRange("lineitem.qty", 0, 10);  // never published: unknown
  engine.InsertBatch("lineitem.qty", {1, 2, 3, 4});
  engine.RecordFeedback("lineitem.qty", 0, 50, 40.0);
  engine.RecordFeedback("lineitem.qty", 10, 20, 12.0);
  engine.RefreshSnapshot("lineitem.qty");
  engine.RecordFeedback("lineitem.qty", 0, 50, 44.0);
  engine.RecordFeedback("lineitem.qty", 30, 90, 7.0);
  engine.Flush("lineitem.qty");

  engine.PublishExternal(
      "global.price",
      HistogramModel::FromSimpleBuckets({{0.0, 10.5, 100.0},
                                         {10.5, 40.0, 59.0}}),
      /*watermark=*/77);
  const KeyHandle handle = engine.Resolve("global.price");
  for (int q = 0; q < 4; ++q) engine.EstimateRange(handle, q, 30);
  engine.EstimateRangeBatch(handle, {{0, 5}, {6, 12}, {13, 39}});
  engine.LeasedSnapshot(handle);
  engine.Snapshot("no.such.key");
  engine.FlushAll();
}

TEST(EngineTelemetryTest, ExpositionInventoryIsStable) {
  // The full series inventory the script above produces, captured before
  // per-key series moved from registry callbacks to the engine's
  // scrape-time collector: every family, type, label set, and value must
  // survive that move unchanged.
  const std::vector<std::string> golden = {
    "dynhist_coalesce_run_length histogram dynhist_coalesce_run_length_bucket{le=\"+Inf\"} 0",
    "dynhist_coalesce_run_length histogram dynhist_coalesce_run_length_count 0",
    "dynhist_coalesce_run_length histogram dynhist_coalesce_run_length_sum 0",
    "dynhist_engine_async_publishes_total counter dynhist_engine_async_publishes_total 1",
    "dynhist_engine_deletes_total counter dynhist_engine_deletes_total 1",
    "dynhist_engine_feedbacks_total counter dynhist_engine_feedbacks_total 5",
    "dynhist_engine_inserts_total counter dynhist_engine_inserts_total 24",
    "dynhist_engine_keys gauge dynhist_engine_keys 3",
    "dynhist_engine_max_publish_nanos gauge dynhist_engine_max_publish_nanos *",
    "dynhist_engine_publish_coalesced_total counter dynhist_engine_publish_coalesced_total 1",
    "dynhist_engine_publish_nanos_total counter dynhist_engine_publish_nanos_total *",
    "dynhist_engine_publish_queue_depth gauge dynhist_engine_publish_queue_depth 0",
    "dynhist_engine_publish_queued_total counter dynhist_engine_publish_queued_total 1",
    "dynhist_engine_publish_skipped_total counter dynhist_engine_publish_skipped_total 0",
    "dynhist_engine_publishes_total counter dynhist_engine_publishes_total 4",
    "dynhist_engine_queries_total counter dynhist_engine_queries_total 16",
    "dynhist_engine_queue_wait_nanos_total counter dynhist_engine_queue_wait_nanos_total *",
    "dynhist_engine_snapshot_epochs gauge dynhist_engine_snapshot_epochs 4",
    "dynhist_engine_unknown_queries_total counter dynhist_engine_unknown_queries_total 2",
    "dynhist_ingest_batch_ops histogram dynhist_ingest_batch_ops_bucket{le=\"+Inf\"} 12",
    "dynhist_ingest_batch_ops histogram dynhist_ingest_batch_ops_bucket{le=\"2\"} 3",
    "dynhist_ingest_batch_ops histogram dynhist_ingest_batch_ops_bucket{le=\"3\"} 5",
    "dynhist_ingest_batch_ops histogram dynhist_ingest_batch_ops_bucket{le=\"6\"} 12",
    "dynhist_ingest_batch_ops histogram dynhist_ingest_batch_ops_count 12",
    "dynhist_ingest_batch_ops histogram dynhist_ingest_batch_ops_sum 35",
    "dynhist_key_async_publishes_total counter dynhist_key_async_publishes_total{key=\"global.price\"} 0",
    "dynhist_key_async_publishes_total counter dynhist_key_async_publishes_total{key=\"lineitem.qty\"} 0",
    "dynhist_key_async_publishes_total counter dynhist_key_async_publishes_total{key=\"orders.amount\"} 1",
    "dynhist_key_buffered_ops gauge dynhist_key_buffered_ops{key=\"global.price\"} 0",
    "dynhist_key_buffered_ops gauge dynhist_key_buffered_ops{key=\"lineitem.qty\"} 0",
    "dynhist_key_buffered_ops gauge dynhist_key_buffered_ops{key=\"orders.amount\"} 0",
    "dynhist_key_deletes_total counter dynhist_key_deletes_total{key=\"global.price\"} 0",
    "dynhist_key_deletes_total counter dynhist_key_deletes_total{key=\"lineitem.qty\"} 0",
    "dynhist_key_deletes_total counter dynhist_key_deletes_total{key=\"orders.amount\"} 1",
    "dynhist_key_feedback_abs_error histogram dynhist_key_feedback_abs_error_bucket{key=\"global.price\",le=\"+Inf\"} 0",
    "dynhist_key_feedback_abs_error histogram dynhist_key_feedback_abs_error_bucket{key=\"lineitem.qty\",le=\"+Inf\"} 4",
    "dynhist_key_feedback_abs_error histogram dynhist_key_feedback_abs_error_bucket{key=\"lineitem.qty\",le=\"18\"} 2",
    "dynhist_key_feedback_abs_error histogram dynhist_key_feedback_abs_error_bucket{key=\"lineitem.qty\",le=\"32\"} 3",
    "dynhist_key_feedback_abs_error histogram dynhist_key_feedback_abs_error_bucket{key=\"lineitem.qty\",le=\"56\"} 4",
    "dynhist_key_feedback_abs_error histogram dynhist_key_feedback_abs_error_bucket{key=\"orders.amount\",le=\"+Inf\"} 1",
    "dynhist_key_feedback_abs_error histogram dynhist_key_feedback_abs_error_bucket{key=\"orders.amount\",le=\"1\"} 1",
    "dynhist_key_feedback_abs_error histogram dynhist_key_feedback_abs_error_count{key=\"global.price\"} 0",
    "dynhist_key_feedback_abs_error histogram dynhist_key_feedback_abs_error_count{key=\"lineitem.qty\"} 4",
    "dynhist_key_feedback_abs_error histogram dynhist_key_feedback_abs_error_count{key=\"orders.amount\"} 1",
    "dynhist_key_feedback_abs_error histogram dynhist_key_feedback_abs_error_sum{key=\"global.price\"} 0",
    "dynhist_key_feedback_abs_error histogram dynhist_key_feedback_abs_error_sum{key=\"lineitem.qty\"} 88",
    "dynhist_key_feedback_abs_error histogram dynhist_key_feedback_abs_error_sum{key=\"orders.amount\"} 0",
    "dynhist_key_feedbacks_total counter dynhist_key_feedbacks_total{key=\"global.price\"} 0",
    "dynhist_key_feedbacks_total counter dynhist_key_feedbacks_total{key=\"lineitem.qty\"} 4",
    "dynhist_key_feedbacks_total counter dynhist_key_feedbacks_total{key=\"orders.amount\"} 1",
    "dynhist_key_inserts_total counter dynhist_key_inserts_total{key=\"global.price\"} 0",
    "dynhist_key_inserts_total counter dynhist_key_inserts_total{key=\"lineitem.qty\"} 4",
    "dynhist_key_inserts_total counter dynhist_key_inserts_total{key=\"orders.amount\"} 20",
    "dynhist_key_lease_staleness_versions gauge dynhist_key_lease_staleness_versions{key=\"global.price\"} 0",
    "dynhist_key_lease_staleness_versions gauge dynhist_key_lease_staleness_versions{key=\"lineitem.qty\"} 1",
    "dynhist_key_lease_staleness_versions gauge dynhist_key_lease_staleness_versions{key=\"orders.amount\"} 2",
    "dynhist_key_publish_coalesced_total counter dynhist_key_publish_coalesced_total{key=\"global.price\"} 0",
    "dynhist_key_publish_coalesced_total counter dynhist_key_publish_coalesced_total{key=\"lineitem.qty\"} 0",
    "dynhist_key_publish_coalesced_total counter dynhist_key_publish_coalesced_total{key=\"orders.amount\"} 1",
    "dynhist_key_publish_nanos_total counter dynhist_key_publish_nanos_total{key=\"global.price\"} *",
    "dynhist_key_publish_nanos_total counter dynhist_key_publish_nanos_total{key=\"lineitem.qty\"} *",
    "dynhist_key_publish_nanos_total counter dynhist_key_publish_nanos_total{key=\"orders.amount\"} *",
    "dynhist_key_publish_queued_total counter dynhist_key_publish_queued_total{key=\"global.price\"} 0",
    "dynhist_key_publish_queued_total counter dynhist_key_publish_queued_total{key=\"lineitem.qty\"} 0",
    "dynhist_key_publish_queued_total counter dynhist_key_publish_queued_total{key=\"orders.amount\"} 1",
    "dynhist_key_publish_skipped_total counter dynhist_key_publish_skipped_total{key=\"global.price\"} 0",
    "dynhist_key_publish_skipped_total counter dynhist_key_publish_skipped_total{key=\"lineitem.qty\"} 0",
    "dynhist_key_publish_skipped_total counter dynhist_key_publish_skipped_total{key=\"orders.amount\"} 0",
    "dynhist_key_publishes_total counter dynhist_key_publishes_total{key=\"global.price\"} 1",
    "dynhist_key_publishes_total counter dynhist_key_publishes_total{key=\"lineitem.qty\"} 1",
    "dynhist_key_publishes_total counter dynhist_key_publishes_total{key=\"orders.amount\"} 2",
    "dynhist_key_queries_total counter dynhist_key_queries_total{key=\"global.price\"} 8",
    "dynhist_key_queries_total counter dynhist_key_queries_total{key=\"lineitem.qty\"} 0",
    "dynhist_key_queries_total counter dynhist_key_queries_total{key=\"orders.amount\"} 6",
    "dynhist_key_queue_wait_nanos_total counter dynhist_key_queue_wait_nanos_total{key=\"global.price\"} *",
    "dynhist_key_queue_wait_nanos_total counter dynhist_key_queue_wait_nanos_total{key=\"lineitem.qty\"} *",
    "dynhist_key_queue_wait_nanos_total counter dynhist_key_queue_wait_nanos_total{key=\"orders.amount\"} *",
    "dynhist_key_snapshot_epoch gauge dynhist_key_snapshot_epoch{key=\"global.price\"} 1",
    "dynhist_key_snapshot_epoch gauge dynhist_key_snapshot_epoch{key=\"lineitem.qty\"} 1",
    "dynhist_key_snapshot_epoch gauge dynhist_key_snapshot_epoch{key=\"orders.amount\"} 2",
    "dynhist_key_snapshot_lease_hits_total counter dynhist_key_snapshot_lease_hits_total{key=\"global.price\"} 5",
    "dynhist_key_snapshot_lease_hits_total counter dynhist_key_snapshot_lease_hits_total{key=\"lineitem.qty\"} 0",
    "dynhist_key_snapshot_lease_hits_total counter dynhist_key_snapshot_lease_hits_total{key=\"orders.amount\"} 0",
    "dynhist_key_snapshot_lease_misses_total counter dynhist_key_snapshot_lease_misses_total{key=\"global.price\"} 1",
    "dynhist_key_snapshot_lease_misses_total counter dynhist_key_snapshot_lease_misses_total{key=\"lineitem.qty\"} 0",
    "dynhist_key_snapshot_lease_misses_total counter dynhist_key_snapshot_lease_misses_total{key=\"orders.amount\"} 0",
    "dynhist_key_staleness_updates gauge dynhist_key_staleness_updates{key=\"global.price\"} 0",
    "dynhist_key_staleness_updates gauge dynhist_key_staleness_updates{key=\"lineitem.qty\"} 2",
    "dynhist_key_staleness_updates gauge dynhist_key_staleness_updates{key=\"orders.amount\"} 0",
    "dynhist_publish_latency_ns histogram dynhist_publish_latency_ns_bucket{le=\"+Inf\"} 4",
    "dynhist_publish_latency_ns histogram dynhist_publish_latency_ns_count 4",
    "dynhist_publish_latency_ns histogram dynhist_publish_latency_ns_sum *",
    "dynhist_publish_queue_wait_ns histogram dynhist_publish_queue_wait_ns_bucket{le=\"+Inf\"} 1",
    "dynhist_publish_queue_wait_ns histogram dynhist_publish_queue_wait_ns_count 1",
    "dynhist_publish_queue_wait_ns histogram dynhist_publish_queue_wait_ns_sum *",
    "dynhist_query_latency_ns histogram dynhist_query_latency_ns_bucket{le=\"+Inf\"} 2",
    "dynhist_query_latency_ns histogram dynhist_query_latency_ns_count 2",
    "dynhist_query_latency_ns histogram dynhist_query_latency_ns_sum *",
    "dynhist_snapshot_lease_hits_total counter dynhist_snapshot_lease_hits_total 5",
    "dynhist_snapshot_lease_misses_total counter dynhist_snapshot_lease_misses_total 1",
    "dynhist_trace_events_dropped_total counter dynhist_trace_events_dropped_total 0",
    "dynhist_trace_events_recorded_total counter dynhist_trace_events_recorded_total 14",
  };
  HistogramEngine engine(ManualOptions());
  RunInventoryScript(engine);
  const std::string text = Prometheus(engine);
  EXPECT_EQ(ExpositionInventory(text), golden);

  ExpectPerKeySeriesSorted(text);

  // EngineStats keeps its field set, ToJson order, and values.
  const std::string json = engine.Stats().ToJson();
  std::vector<std::string> fields;
  for (std::size_t pos = json.find('"'); pos != std::string::npos;
       pos = json.find('"', json.find(',', pos))) {
    const std::size_t close = json.find('"', pos + 1);
    fields.push_back(json.substr(pos + 1, close - pos - 1));
    if (json.find(',', pos) == std::string::npos) break;
  }
  const std::vector<std::string> expected_fields = {
      "keys", "inserts", "deletes", "feedbacks", "queries",
      "fallback_queries", "unknown_queries", "lease_hits", "lease_misses",
      "publishes", "async_publishes", "publish_queued",
      "publish_coalesced", "publish_rejected", "publish_skipped",
      "publish_nanos", "max_publish_nanos", "queue_wait_nanos",
      "snapshot_epoch"};
  EXPECT_EQ(fields, expected_fields);
  EXPECT_EQ(json.rfind("{\"keys\":3,\"inserts\":24,\"deletes\":1,"
                       "\"feedbacks\":5,\"queries\":16,"
                       "\"fallback_queries\":0,\"unknown_queries\":2,"
                       "\"lease_hits\":5,\"lease_misses\":1,"
                       "\"publishes\":4,\"async_publishes\":1,"
                       "\"publish_queued\":1,\"publish_coalesced\":1,"
                       "\"publish_rejected\":0,\"publish_skipped\":0,",
                       0),
            0u)
      << json;
  EXPECT_NE(json.find(",\"snapshot_epoch\":4}"), std::string::npos) << json;
  const EngineStats orders = engine.Stats("orders.amount");
  EXPECT_EQ(orders.keys, 1u);
  EXPECT_EQ(orders.inserts, 20u);
  EXPECT_EQ(orders.queries, 6u);
  EXPECT_EQ(orders.publishes, 2u);
  EXPECT_EQ(orders.publish_coalesced, 1u);
  EXPECT_EQ(orders.unknown_queries, 0u);
  const EngineStats external = engine.Stats("global.price");
  EXPECT_EQ(external.queries, 8u);
  EXPECT_EQ(external.lease_hits, 5u);
  EXPECT_EQ(external.lease_misses, 1u);
  EXPECT_EQ(external.inserts, 0u);
  EXPECT_EQ(external.snapshot_epoch, 1u);
}

TEST(EngineTelemetryTest, PerKeyStatsSumToGlobalUnderConcurrency) {
  EngineOptions options;
  options.shards = 2;
  options.batch_size = 8;
  options.snapshot_every = 256;
  options.async_publish = true;
  options.merge_workers = 2;
  HistogramEngine engine(options);

  constexpr int kWriters = 2;
  constexpr int kOpsPerWriter = 20'000;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&engine, w] {
      Rng rng(static_cast<std::uint64_t>(w) + 1);
      for (int i = 0; i < kOpsPerWriter; ++i) {
        const char* key = (i & 1) != 0 ? "hot" : "cold";
        const auto v = static_cast<std::int64_t>(rng.UniformInt(0, 999));
        engine.Insert(key, v);
        if (i % 4 == 0) engine.Delete(key, v);  // delete what we inserted
        if (i % 64 == 0) engine.Snapshot(key);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  engine.DrainPublishes();

  const EngineStats hot = engine.Stats("hot");
  const EngineStats cold = engine.Stats("cold");
  const EngineStats global = engine.Stats();
  EXPECT_EQ(global.keys, 2u);
  EXPECT_EQ(global.inserts, hot.inserts + cold.inserts);
  EXPECT_EQ(global.inserts,
            static_cast<std::uint64_t>(kWriters) * kOpsPerWriter);
  EXPECT_EQ(global.deletes, hot.deletes + cold.deletes);
  EXPECT_EQ(global.queries, hot.queries + cold.queries);
  EXPECT_EQ(global.publishes, hot.publishes + cold.publishes);
  EXPECT_EQ(global.async_publishes,
            hot.async_publishes + cold.async_publishes);
  EXPECT_EQ(global.publish_queued,
            hot.publish_queued + cold.publish_queued);
  EXPECT_EQ(global.publish_coalesced,
            hot.publish_coalesced + cold.publish_coalesced);
  EXPECT_EQ(global.publish_rejected,
            hot.publish_rejected + cold.publish_rejected);
  EXPECT_EQ(global.publish_skipped,
            hot.publish_skipped + cold.publish_skipped);
  EXPECT_EQ(global.publish_nanos, hot.publish_nanos + cold.publish_nanos);
  EXPECT_EQ(global.queue_wait_nanos,
            hot.queue_wait_nanos + cold.queue_wait_nanos);
  EXPECT_EQ(global.max_publish_nanos,
            std::max(hot.max_publish_nanos, cold.max_publish_nanos));
  // Every publication advances its key's epoch by exactly 1, so at
  // quiescence the epoch sum equals the publish count.
  EXPECT_EQ(global.snapshot_epoch, hot.snapshot_epoch + cold.snapshot_epoch);
  EXPECT_EQ(global.snapshot_epoch, global.publishes);
  EXPECT_GT(global.publishes, 0u);
}

TEST(EngineTelemetryTest, QueueWaitIsAccountedOnDrain) {
  EngineOptions options = ManualOptions();
  options.snapshot_every = 16;
  options.async_publish = true;
  HistogramEngine engine(options);

  for (int i = 0; i < 16; ++i) engine.Insert("k", i);
  EXPECT_EQ(engine.Stats("k").publish_queued, 1u);
  EXPECT_EQ(engine.PublishQueueDepth(), 1u);
  // Nothing has drained the request yet: no wait recorded.
  EXPECT_EQ(MetricValue(Prometheus(engine),
                        "dynhist_publish_queue_wait_ns_count"),
            0.0);

  EXPECT_EQ(engine.PumpPublishes(), 1u);
  const EngineStats stats = engine.Stats("k");
  EXPECT_EQ(stats.async_publishes, 1u);
  const std::string text = Prometheus(engine);
  EXPECT_EQ(MetricValue(text, "dynhist_publish_queue_wait_ns_count"), 1.0);
  EXPECT_EQ(MetricValue(text, "dynhist_publish_latency_ns_count"), 1.0);
}

TEST(EngineTelemetryTest, ExpositionExposesPerKeySeriesAndStaleness) {
  HistogramEngine engine(ManualOptions());
  for (int i = 0; i < 10; ++i) engine.Insert("orders.amount", i);
  engine.Snapshot("no.such.key");  // counted globally, not per-key

  std::string text = Prometheus(engine);
  EXPECT_NE(
      text.find("dynhist_key_inserts_total{key=\"orders.amount\"} 10"),
      std::string::npos);
  EXPECT_NE(
      text.find("dynhist_key_staleness_updates{key=\"orders.amount\"} 10"),
      std::string::npos);
  EXPECT_NE(
      text.find("dynhist_key_snapshot_epoch{key=\"orders.amount\"} 0"),
      std::string::npos);
  EXPECT_EQ(MetricValue(text, "dynhist_engine_queries_total"), 1.0);
  EXPECT_EQ(engine.Stats("no.such.key").keys, 0u);

  engine.RefreshSnapshot("orders.amount");
  text = Prometheus(engine);
  EXPECT_NE(
      text.find("dynhist_key_snapshot_epoch{key=\"orders.amount\"} 1"),
      std::string::npos);
  EXPECT_NE(
      text.find("dynhist_key_staleness_updates{key=\"orders.amount\"} 0"),
      std::string::npos);

  const EngineStats stats = engine.Stats("orders.amount");
  const std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"inserts\":10"), std::string::npos);
  EXPECT_NE(json.find("\"snapshot_epoch\":1"), std::string::npos);
}

TEST(EngineTelemetryTest, IngestDistributionsRecordAtBatchGranularity) {
  HistogramEngine engine(ManualOptions());
  // Eight copies of one value in a 4-op-batch engine: at least one drain
  // records a batch size, and coalescing collapses a run of >= 2.
  engine.InsertBatch("k", {5, 5, 5, 5, 5, 5, 5, 5});
  engine.Flush("k");
  const std::string text = Prometheus(engine);
  EXPECT_GT(MetricValue(text, "dynhist_ingest_batch_ops_count"), 0.0);
  EXPECT_GT(MetricValue(text, "dynhist_coalesce_run_length_count"), 0.0);
}

TEST(EngineTelemetryTest, TraceRecordsPublishLifecycle) {
  EngineOptions options = ManualOptions();
  HistogramEngine engine(options);
  ASSERT_TRUE(engine.trace().enabled());
  for (int i = 0; i < 8; ++i) engine.Insert("k", i);
  engine.RefreshSnapshot("k");

  const std::vector<telemetry::TraceEvent> events = engine.trace().Events();
  ASSERT_EQ(events.size(), 3u);  // flush, merge, publish of epoch 1
  EXPECT_EQ(events[0].kind, telemetry::TraceEventKind::kFlush);
  EXPECT_EQ(events[1].kind, telemetry::TraceEventKind::kMerge);
  EXPECT_EQ(events[2].kind, telemetry::TraceEventKind::kPublish);
  for (const telemetry::TraceEvent& e : events) {
    EXPECT_STREQ(e.key, "k");
    EXPECT_STREQ(e.trigger, "refresh");
    EXPECT_EQ(e.epoch, 1u);
  }
  std::string trace_json;
  engine.WriteTraceJson(&trace_json);
  EXPECT_NE(trace_json.find("\"trigger\":\"refresh\""), std::string::npos);
}

TEST(EngineTelemetryTest, DisabledTelemetryStillCountsStats) {
  EngineOptions options = ManualOptions();
  options.snapshot_every = 16;
  options.async_publish = true;
  options.enable_telemetry = false;
  HistogramEngine engine(options);
  EXPECT_FALSE(engine.trace().enabled());

  for (int i = 0; i < 16; ++i) engine.Insert("k", i);
  engine.PumpPublishes();
  const EngineStats stats = engine.Stats("k");
  EXPECT_EQ(stats.inserts, 16u);
  EXPECT_EQ(stats.publishes, 1u);
  EXPECT_GT(stats.publish_nanos, 0u);     // always accounted
  EXPECT_EQ(stats.queue_wait_nanos, 0u);  // needs telemetry

  // Exposition still renders (and validates); distributions stay empty.
  const std::string text = Prometheus(engine);
  EXPECT_EQ(MetricValue(text, "dynhist_publish_latency_ns_count"), 0.0);
  EXPECT_EQ(MetricValue(text, "dynhist_ingest_batch_ops_count"), 0.0);
  EXPECT_EQ(MetricValue(text, "dynhist_engine_inserts_total"), 16.0);
  std::string trace_json;
  engine.WriteTraceJson(&trace_json);
  EXPECT_NE(trace_json.find("\"traceEvents\":[]"), std::string::npos);
}

TEST(EngineTelemetryTest, QueryLatencyIsSampledEveryKth) {
  // Estimate reads sample the latency distribution every 1024th query per
  // key, first query included: N queries => floor((N - 1) / 1024) + 1
  // samples. Deterministic because nothing else feeds the histogram.
  EngineOptions options = ManualOptions();
  HistogramEngine engine(options);
  for (int i = 0; i < 32; ++i) engine.Insert("k", i % 8);
  engine.RefreshSnapshot("k");  // Snapshot reads don't sample; queries do

  const int kQueries = 3 * 1024 + 5;
  for (int q = 0; q < kQueries; ++q) engine.EstimateRange("k", 0, 7);
  const std::string text = Prometheus(engine);
  // RefreshSnapshot didn't bump the query counter, so sampled reads are
  // those at query numbers 0, 1024, 2048, 3072.
  EXPECT_EQ(MetricValue(text, "dynhist_query_latency_ns_count"), 4.0);
  EXPECT_GT(MetricValue(text, "dynhist_query_latency_ns_sum"), 0.0);
}

TEST(EngineTelemetryTest, DisabledTelemetrySkipsQueryLatencySampling) {
  EngineOptions options = ManualOptions();
  options.enable_telemetry = false;
  HistogramEngine engine(options);
  for (int i = 0; i < 16; ++i) engine.Insert("k", i);
  engine.RefreshSnapshot("k");
  for (int q = 0; q < 2000; ++q) engine.EstimateRange("k", 0, 15);
  const std::string text = Prometheus(engine);
  EXPECT_EQ(MetricValue(text, "dynhist_query_latency_ns_count"), 0.0);
  EXPECT_EQ(engine.Stats("k").queries, 2000u);
}


TEST(EngineTelemetryTest, ConcurrentKeyCreationAndScrape) {
  // Four threads create keys while a fifth scrapes in a loop. The
  // collector copies the key list under a shared registry lock and reads
  // per-key state outside it, so a scrape never nests the registry's
  // mutex inside registry_mu_ (or the reverse), and every scrape sees
  // each key either whole or not at all. CI runs this suite under TSan.
  HistogramEngine engine(ManualOptions());
  constexpr int kCreators = 4;
  constexpr int kKeysPerCreator = 64;
  std::atomic<bool> done{false};
  int scrapes = 0;
  std::thread scraper([&] {
    do {
      std::string text;
      engine.WriteMetricsPrometheus(&text);
      std::string error;
      if (!telemetry::SelfCheckPrometheus(text, &error)) {
        ADD_FAILURE() << error;
        return;
      }
      ++scrapes;
    } while (!done.load(std::memory_order_acquire));
  });
  std::vector<std::thread> creators;
  for (int c = 0; c < kCreators; ++c) {
    creators.emplace_back([&engine, c] {
      for (int k = 0; k < kKeysPerCreator; ++k) {
        const std::string key =
            "k" + std::to_string(c) + "." + std::to_string(k);
        engine.Insert(key, k);
        engine.RecordFeedback(key, 0, k, 1.0);
      }
    });
  }
  for (std::thread& t : creators) t.join();
  done.store(true, std::memory_order_release);
  scraper.join();
  EXPECT_GT(scrapes, 0);

  const std::string text = Prometheus(engine);
  constexpr int kKeys = kCreators * kKeysPerCreator;
  EXPECT_EQ(MetricValue(text, "dynhist_engine_keys"), kKeys);
  int key_series = 0;
  for (std::size_t pos = 0;
       (pos = text.find("\ndynhist_key_inserts_total{", pos)) !=
       std::string::npos;
       ++pos) {
    ++key_series;
  }
  EXPECT_EQ(key_series, kKeys);
  ExpectPerKeySeriesSorted(text);
}

}  // namespace
}  // namespace dynhist::engine
