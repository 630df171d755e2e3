// Engine server demo: concurrent writers and readers on one histogram key.
//
// Simulates the server-side life of a dynamic histogram: four writer
// threads stream Zipfian inserts (with a 25% trailing delete mix, §7.3.1)
// into a HistogramEngine while two reader threads continuously ask
// selectivity questions against the published epoch snapshots — the
// optimizer's view. Each reader resolves its KeyHandle once, up front
// (the per-connection pattern), so the query loop revalidates a
// thread-local snapshot lease instead of re-finding the key and
// re-acquiring the snapshot shared_ptr on every call. Publication runs through the async merge pipeline:
// the writer that trips the snapshot cadence enqueues a publish request
// and keeps ingesting; a merge worker drains the queue (coalescing
// duplicate requests for the key) and swaps the snapshot. A second,
// cold key shows per-key options: it publishes lazily on a much longer
// cadence via SetKeyOptions. At the end the final snapshot is scored
// (KS distance, §6.2) against the exact FrequencyVector ground truth
// assembled from everything the writers actually did.
//
// The run also demonstrates the telemetry subsystem: per-key stats
// (Stats(key).ToJson()) are printed, and the engine's metrics
// exposition / trace ring can be dumped to files:
//   --metrics-out=PATH       Prometheus text exposition
//   --metrics-json-out=PATH  JSON exposition
//   --trace-out=PATH         chrome://tracing event dump
// The Prometheus dump is always run through SelfCheckPrometheus (even
// without --metrics-out) and the process exits nonzero if the format
// check fails — this is the exposition gate check.sh relies on.
//
// Serve mode (--serve) replaces the in-process demo with the real
// distributed aggregator: an epoll/nonblocking FrameServer accepting
// site frames and range queries on a TCP port (example_engine_client
// is the matching load generator):
//   --serve=PORT             listen on 127.0.0.1:PORT (0 = ephemeral)
//   --serve-seconds=N        exit after N seconds (0 = until
//                            SIGINT/SIGTERM)
//   --port-file=PATH         write the bound port (for scripts racing
//                            an ephemeral port)
// On exit, serve mode prints aggregator totals and runs the same
// Prometheus self-check gate over the aggregator + engine exposition.

#include <signal.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/dynhist.h"

namespace {

bool WriteFileOrComplain(const std::string& path, const std::string& text);

volatile sig_atomic_t g_serve_stop = 0;

void HandleStopSignal(int) { g_serve_stop = 1; }

// Runs the FrameServer until the deadline or a stop signal; the
// metrics self-check gate applies to the aggregator exposition exactly
// as it does to the demo engine's.
int RunServeMode(std::uint16_t port, long serve_seconds,
                 const std::string& port_file) {
  using dynhist::distributed::FrameServer;

  FrameServer::Options options;
  options.port = port;
  FrameServer server(options);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "engine_server: cannot listen: %s\n",
                 error.c_str());
    return 1;
  }
  std::printf("engine_server: listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);
  if (!port_file.empty() &&
      !WriteFileOrComplain(port_file,
                           std::to_string(server.port()) + "\n")) {
    return 1;
  }

  struct sigaction sa = {};
  sa.sa_handler = HandleStopSignal;  // no SA_RESTART: interrupt sleeps
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(serve_seconds);
  while (g_serve_stop == 0 &&
         (serve_seconds == 0 ||
          std::chrono::steady_clock::now() < deadline)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.Stop();

  const dynhist::distributed::Aggregator& agg = server.aggregator();
  std::printf("connections: %llu accepted\n",
              static_cast<unsigned long long>(
                  server.connections_accepted()));
  std::printf("frames: %llu received (%llu applied, %llu duplicate, "
              "%llu rejected), %llu bytes, %llu merges\n",
              static_cast<unsigned long long>(agg.frames_received()),
              static_cast<unsigned long long>(agg.frames_applied()),
              static_cast<unsigned long long>(agg.frames_duplicate()),
              static_cast<unsigned long long>(agg.frames_rejected()),
              static_cast<unsigned long long>(agg.bytes_received()),
              static_cast<unsigned long long>(agg.merges()));
  std::printf("sites: %zu, keys: %zu\n", agg.NumSites(), agg.NumKeys());

  std::string prom;
  server.WriteMetricsPrometheus(&prom);
  std::string format_error;
  if (!dynhist::telemetry::SelfCheckPrometheus(prom, &format_error)) {
    std::fprintf(stderr,
                 "engine_server: metrics exposition FAILED self-check: "
                 "%s\n",
                 format_error.c_str());
    return 1;
  }
  std::printf("metrics exposition: %zu bytes, self-check passed\n",
              prom.size());
  return 0;
}

// Writes `text` to `path`; returns false (with a diagnostic) on failure.
bool WriteFileOrComplain(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "engine_server: cannot open '%s' for writing\n",
                 path.c_str());
    return false;
  }
  const bool ok =
      std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (std::fclose(f) != 0 || !ok) {
    std::fprintf(stderr, "engine_server: short write to '%s'\n",
                 path.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dynhist;
  using namespace dynhist::engine;

  std::string metrics_out, metrics_json_out, trace_out, port_file;
  bool serve = false;
  long serve_port = 0;
  long serve_seconds = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = arg.substr(14);
    } else if (arg.rfind("--metrics-json-out=", 0) == 0) {
      metrics_json_out = arg.substr(19);
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(12);
    } else if (arg.rfind("--serve=", 0) == 0) {
      serve = true;
      serve_port = std::strtol(arg.c_str() + 8, nullptr, 10);
    } else if (arg.rfind("--serve-seconds=", 0) == 0) {
      serve_seconds = std::strtol(arg.c_str() + 16, nullptr, 10);
    } else if (arg.rfind("--port-file=", 0) == 0) {
      port_file = arg.substr(12);
    } else {
      std::fprintf(stderr, "engine_server: unknown flag '%s'\n",
                   arg.c_str());
      return 2;
    }
  }
  if (serve_port < 0 || serve_port > 65535) {
    std::fprintf(stderr, "engine_server: bad --serve port %ld\n",
                 serve_port);
    return 2;
  }
  if (serve) {
    return RunServeMode(static_cast<std::uint16_t>(serve_port),
                        serve_seconds, port_file);
  }

  constexpr std::int64_t kDomain = 5'001;
  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr std::int64_t kOpsPerWriter = 50'000;
  constexpr char kKey[] = "orders.amount";

  EngineOptions options;
  options.shards = 8;
  options.batch_size = 64;
  options.snapshot_every = 8'192;    // cadence trips enqueue, workers merge
  options.async_publish = true;
  options.merge_workers = 1;
  options.kind = ShardHistogramKind::kDynamicAdo;
  HistogramEngine engine(options);

  // Per-key overrides layered over the defaults: the cold key refreshes an
  // order of magnitude less often and with a smaller published budget.
  constexpr char kColdKey[] = "orders.priority";
  const KeyHandle cold_handle = engine.Resolve(kColdKey);
  engine.SetKeyOptions(cold_handle, {.snapshot_every = 100'000,
                                     .merged_buckets = 16});

  // What a server holds per connection: the key resolved once, up front,
  // so the reader loops below never touch the registry again.
  const KeyHandle hot_handle = engine.Resolve(kKey);

  // Each writer's operations, pre-generated so the exact ground truth can
  // be reassembled after the run.
  std::vector<UpdateStream> scripts;
  for (int w = 0; w < kWriters; ++w) {
    Rng rng(static_cast<std::uint64_t>(w) + 41);
    const ZipfDistribution zipf(static_cast<std::size_t>(kDomain), 1.0);
    std::vector<std::int64_t> values;
    values.reserve(kOpsPerWriter);
    for (std::int64_t i = 0; i < kOpsPerWriter; ++i) {
      values.push_back(static_cast<std::int64_t>(zipf.Sample(rng)));
    }
    scripts.push_back(MakeMixedStream(std::move(values), 0.25, rng));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> queries_served{0};

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  std::int64_t total_ops = 0;
  for (const UpdateStream& script : scripts) {
    total_ops += static_cast<std::int64_t>(script.size());
    threads.emplace_back([&, &script = script] {
      std::size_t i = 0;
      for (const UpdateOp& op : script) {
        if (op.kind == UpdateOp::Kind::kInsert) {
          engine.Insert(kKey, op.value);
          // A trickle of traffic for the lazily-published cold key.
          if (++i % 64 == 0) engine.Insert(kColdKey, op.value % 8);
        } else {
          engine.Delete(kKey, op.value);
        }
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(static_cast<std::uint64_t>(r) + 77);
      std::uint64_t served = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::int64_t lo = rng.UniformInt(0, kDomain - 1);
        const std::int64_t hi =
            std::min<std::int64_t>(kDomain - 1, lo + 250);
        // The estimate read goes through the resolved handle: the
        // thread's lease revalidates with one relaxed load and the
        // published CompiledSnapshot arena answers (two branch-free
        // lower_bound lookups) — no registry find, and a shared_ptr
        // acquire only when a publish landed since this thread's last
        // query. Feeds the sampled dynhist_query_latency_ns distribution.
        volatile double sink = engine.EstimateRange(hot_handle, lo, hi);
        (void)sink;
        ++served;
      }
      queries_served.fetch_add(served);
    });
  }

  for (int w = 0; w < kWriters; ++w) {
    threads[static_cast<std::size_t>(w)].join();
  }
  const double write_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  stop.store(true);
  for (std::size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  // Exact ground truth: replay what the writers did, single-threaded.
  FrequencyVector truth(kDomain);
  for (const UpdateStream& script : scripts) {
    for (const UpdateOp& op : script) {
      if (op.kind == UpdateOp::Kind::kInsert) {
        truth.Insert(op.value);
      } else {
        truth.Delete(op.value);
      }
    }
  }

  engine.DrainPublishes();  // let the merge worker finish queued requests
  const EngineSnapshot final_snapshot = engine.RefreshSnapshot(kKey);
  const EngineStats stats = engine.Stats();
  std::printf("writers: %d threads, %lld ops in %.2fs  (%.0f updates/sec)\n",
              kWriters, static_cast<long long>(total_ops), write_seconds,
              static_cast<double>(total_ops) / write_seconds);
  std::printf("readers: %d threads, %llu queries  (%.0f queries/sec)\n",
              kReaders,
              static_cast<unsigned long long>(queries_served.load()),
              static_cast<double>(queries_served.load()) / write_seconds);
  std::printf("epochs published: %llu   live mass: %.0f (truth %lld)\n",
              static_cast<unsigned long long>(stats.publishes),
              engine.LiveTotalCount(kKey),
              static_cast<long long>(truth.TotalCount()));
  std::printf("async pipeline: %llu queued, %llu coalesced, %llu merged "
              "off-thread, mean merge %.0fus\n",
              static_cast<unsigned long long>(stats.publish_queued),
              static_cast<unsigned long long>(stats.publish_coalesced),
              static_cast<unsigned long long>(stats.async_publishes),
              stats.publishes == 0
                  ? 0.0
                  : static_cast<double>(stats.publish_nanos) / 1e3 /
                        static_cast<double>(stats.publishes));
  const EngineSnapshot cold = engine.RefreshSnapshot(kColdKey);
  std::printf("cold key: %zu buckets (override 16), mass %.0f\n",
              cold.model().NumBuckets(), cold.TotalCount());
  std::printf("KS(final snapshot, truth) = %.4f\n",
              KsStatistic(truth, final_snapshot.model()));

  // A couple of optimizer questions against the final epoch, answered on
  // its compiled arena.
  const SelectivityEstimator estimator(final_snapshot.compiled());
  const std::int64_t n = truth.TotalCount();
  std::printf("selectivity(A <= 100):      estimate %.4f   truth %.4f\n",
              estimator.SelectivityAtMost(100),
              static_cast<double>(truth.RangeCount(0, 100)) /
                  static_cast<double>(n));
  std::printf("selectivity(1000<=A<=2000): estimate %.4f   truth %.4f\n",
              estimator.SelectivityRange(1'000, 2'000),
              static_cast<double>(truth.RangeCount(1'000, 2'000)) /
                  static_cast<double>(n));

  // Observability: per-key stats and the metrics exposition endpoint.
  // Stats through the same handles the readers queried with.
  const EngineStats hot_stats = engine.Stats(hot_handle);
  std::printf("\nstats[%s]:  %s\n", kKey, hot_stats.ToJson().c_str());
  std::printf("stats[%s]: %s\n", kColdKey,
              engine.Stats(cold_handle).ToJson().c_str());
  std::printf("leases: %llu hits, %llu misses (%.4f%% of reads "
              "touched the shared_ptr)\n",
              static_cast<unsigned long long>(hot_stats.lease_hits),
              static_cast<unsigned long long>(hot_stats.lease_misses),
              hot_stats.lease_hits + hot_stats.lease_misses == 0
                  ? 0.0
                  : 100.0 * static_cast<double>(hot_stats.lease_misses) /
                        static_cast<double>(hot_stats.lease_hits +
                                            hot_stats.lease_misses));
  std::printf("trace ring: %llu events recorded, %llu dropped\n",
              static_cast<unsigned long long>(engine.trace().recorded()),
              static_cast<unsigned long long>(engine.trace().dropped()));

  std::string prom;
  engine.WriteMetricsPrometheus(&prom);
  std::string format_error;
  if (!telemetry::SelfCheckPrometheus(prom, &format_error)) {
    std::fprintf(stderr,
                 "engine_server: metrics exposition FAILED self-check: %s\n",
                 format_error.c_str());
    return 1;
  }
  std::printf("metrics exposition: %zu bytes, self-check passed\n",
              prom.size());
  if (!metrics_out.empty() && !WriteFileOrComplain(metrics_out, prom)) {
    return 1;
  }
  if (!metrics_json_out.empty()) {
    std::string json;
    engine.WriteMetricsJson(&json);
    if (!WriteFileOrComplain(metrics_json_out, json)) return 1;
  }
  if (!trace_out.empty()) {
    std::string trace;
    engine.WriteTraceJson(&trace);
    if (!WriteFileOrComplain(trace_out, trace)) return 1;
  }
  return 0;
}
