// Engine client: the load-generating site fleet for engine_server
// --serve.
//
// Simulates N shared-nothing sites (§8): each site runs its own
// HistogramEngine over the same two keys with a site-shifted Zipfian
// stream, publishes snapshots, and ships them as frames through one
// TCP connection to the aggregator. After the configured rounds the
// client verifies the whole distributed pipeline end to end:
//
//   1. Bit-identical merges — for every key it re-runs the aggregator's
//      exact merge (Superimpose + ReduceWithSsbm over the site models
//      in site order, compiled to the query arena) in-process, and
//      compares the server's answer for random range queries with
//      operator== on the doubles. Any difference is a failure: the
//      frame codec, the decode path, and the merge must preserve every
//      bit.
//   2. Watermark idempotence — every frame is re-shipped verbatim; the
//      aggregator must acknowledge each as a duplicate (zero merges).
//
// Exit status 0 only if both checks pass — this is the loopback smoke
// test CI runs against a real server over 127.0.0.1.
//
// Flags:
//   --connect=HOST:PORT   server address (required)
//   --sites=N             simulated sites (default 3)
//   --ops=N               updates per site per key per round (20,000)
//   --rounds=N            publish+ship rounds (default 2)
//   --queries=N           verification queries per key (default 500)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/dynhist.h"

namespace {

using namespace dynhist;
using namespace dynhist::distributed;

constexpr const char* kKeys[] = {"orders.amount", "web.latency_ms"};
constexpr std::int64_t kDomain = 3'000;

engine::EngineOptions SiteOptions() {
  engine::EngineOptions o;
  o.shards = 4;
  o.snapshot_every = 0;  // manual publication: one refresh per round
  o.async_publish = false;
  o.kind = engine::ShardHistogramKind::kDynamicAdo;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  std::string connect;
  int sites = 3;
  std::int64_t ops = 20'000;
  int rounds = 2;
  int queries = 500;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--connect=", 0) == 0) {
      connect = arg.substr(10);
    } else if (arg.rfind("--sites=", 0) == 0) {
      sites = std::atoi(arg.c_str() + 8);
    } else if (arg.rfind("--ops=", 0) == 0) {
      ops = std::atol(arg.c_str() + 6);
    } else if (arg.rfind("--rounds=", 0) == 0) {
      rounds = std::atoi(arg.c_str() + 9);
    } else if (arg.rfind("--queries=", 0) == 0) {
      queries = std::atoi(arg.c_str() + 10);
    } else {
      std::fprintf(stderr, "engine_client: unknown flag '%s'\n",
                   arg.c_str());
      return 2;
    }
  }
  const std::size_t colon = connect.rfind(':');
  if (connect.empty() || colon == std::string::npos) {
    std::fprintf(stderr,
                 "engine_client: --connect=HOST:PORT is required\n");
    return 2;
  }
  const std::string host = connect.substr(0, colon);
  const int port = std::atoi(connect.c_str() + colon + 1);
  if (sites < 1 || rounds < 1 || port <= 0 || port > 65535) {
    std::fprintf(stderr, "engine_client: bad flag values\n");
    return 2;
  }

  FrameClient client;
  std::string error;
  if (!client.Connect(host, static_cast<std::uint16_t>(port), &error)) {
    std::fprintf(stderr, "engine_client: %s\n", error.c_str());
    return 1;
  }

  // The site fleet: engine + shipper per site, site ids 1..N.
  std::vector<std::unique_ptr<engine::HistogramEngine>> engines;
  std::vector<std::unique_ptr<SiteShipper>> shippers;
  for (int s = 0; s < sites; ++s) {
    engines.push_back(
        std::make_unique<engine::HistogramEngine>(SiteOptions()));
    shippers.push_back(std::make_unique<SiteShipper>(
        engines.back().get(), static_cast<std::uint32_t>(s + 1)));
  }

  const auto ship_start = std::chrono::steady_clock::now();
  std::size_t frames_shipped = 0;
  for (int round = 0; round < rounds; ++round) {
    for (int s = 0; s < sites; ++s) {
      // Site-shifted Zipf: overlapping supports with different hot
      // spots, so superposition has real cross-site border interleaving.
      Rng rng(static_cast<std::uint64_t>(s) * 1000 +
              static_cast<std::uint64_t>(round) + 7);
      const ZipfDistribution zipf(static_cast<std::size_t>(kDomain), 0.9);
      for (std::int64_t i = 0; i < ops; ++i) {
        for (const char* key : kKeys) {
          const auto v = static_cast<std::int64_t>(zipf.Sample(rng));
          engines[static_cast<std::size_t>(s)]->Insert(
              key, (v + s * 97) % kDomain);
        }
      }
      engines[static_cast<std::size_t>(s)]->RefreshAll();
      frames_shipped += shippers[static_cast<std::size_t>(s)]->Ship(
          client.FrameSink());
    }
  }
  const double ship_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    ship_start)
          .count();

  // Check 1: server answers vs the aggregator's merge replicated
  // in-process — same models, same site order, same reduction, same
  // compiled arena; compared with ==, not a tolerance.
  std::size_t checked = 0, mismatched = 0;
  const auto query_start = std::chrono::steady_clock::now();
  for (const char* key : kKeys) {
    std::vector<HistogramModel> models;
    for (int s = 0; s < sites; ++s) {
      HistogramModel model =
          engines[static_cast<std::size_t>(s)]->Snapshot(key).model();
      if (!model.Empty()) models.push_back(std::move(model));
    }
    SnapshotMerger merger;
    const HistogramModel merged = merger.MergeAndReduce(models, 64);
    const CompiledSnapshot compiled = CompiledSnapshot::Compile(merged);
    Rng rng(99);
    for (int q = 0; q < queries; ++q) {
      const std::int64_t lo = rng.UniformInt(0, kDomain - 1);
      const std::int64_t hi =
          std::min<std::int64_t>(kDomain - 1, lo + rng.UniformInt(0, 400));
      double over_the_wire = 0.0;
      if (!client.Query(key, lo, hi, &over_the_wire)) {
        std::fprintf(stderr, "engine_client: query transport failed\n");
        return 1;
      }
      const double local = compiled.EstimateRange(lo, hi);
      ++checked;
      if (over_the_wire != local) {
        if (++mismatched <= 5) {
          std::fprintf(stderr,
                       "MISMATCH key=%s [%lld, %lld]: wire %.17g != "
                       "local %.17g\n",
                       key, static_cast<long long>(lo),
                       static_cast<long long>(hi), over_the_wire, local);
        }
      }
    }
  }
  const double query_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    query_start)
          .count();

  // Check 2: force re-ship of everything already acknowledged — every
  // frame must come back "duplicate" (the aggregator's merge counter
  // must not move; the server's metrics prove it, the acks are the
  // client-visible contract).
  std::size_t reshipped = 0, non_duplicate = 0;
  for (int s = 0; s < sites; ++s) {
    reshipped += shippers[static_cast<std::size_t>(s)]->Ship(
        [&](std::string_view frame) {
          Aggregator::IngestResult result =
              Aggregator::IngestResult::kRejected;
          if (!client.ShipFrame(frame, &result)) return false;
          if (result != Aggregator::IngestResult::kDuplicate) {
            ++non_duplicate;
          }
          return true;
        },
        /*force=*/true);
  }

  std::printf("sites: %d, rounds: %d, ops/site/key/round: %lld\n", sites,
              rounds, static_cast<long long>(ops));
  std::printf("shipped %zu frames in %.3fs (%.0f frames/sec)\n",
              frames_shipped, ship_seconds,
              static_cast<double>(frames_shipped) / ship_seconds);
  std::printf("estimates bit-identical to in-process merge: %zu/%zu "
              "(%.0f queries/sec)\n",
              checked - mismatched, checked,
              static_cast<double>(checked) / query_seconds);
  std::printf("re-ship idempotence: %zu frames re-sent, %zu "
              "non-duplicate acks\n",
              reshipped, non_duplicate);

  if (mismatched != 0 || non_duplicate != 0 || frames_shipped == 0 ||
      reshipped != frames_shipped / static_cast<std::size_t>(rounds)) {
    std::fprintf(stderr, "engine_client: FAILED\n");
    return 1;
  }
  std::printf("engine_client: all checks passed\n");
  return 0;
}
