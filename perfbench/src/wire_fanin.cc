// Workload `wire_fanin`: three in-process site engines (DC, 16 keys
// each, snapshot_every = 0) fed by one open-loop generator at 300k
// updates/s with values uniform over 100,000. One closed-loop shipper
// thread refreshes each site in turn and ships its changed keys through
// the site's own FrameClient sink to an in-process FrameServer on
// 127.0.0.1; one closed-loop client queries the global view over a
// fourth connection. Frame encode/decode, TCP round trips and
// aggregator merges dominate; uniform wide values leave batch
// coalescing nothing to save (unlike `ingest`).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>

#include "harness.h"
#include "ladder.h"
#include "src/data/frequency_vector.h"
#include "src/distributed/frame_client.h"
#include "src/distributed/frame_server.h"
#include "src/distributed/global_histogram.h"
#include "src/distributed/site_shipper.h"
#include "src/engine/histogram_engine.h"
#include "src/histogram/compiled_snapshot.h"
#include "src/metrics/ks.h"

namespace perfbench {

namespace {

using dynhist::CompiledSnapshot;
using dynhist::HistogramModel;
using dynhist::distributed::Aggregator;
using dynhist::distributed::FrameClient;
using dynhist::distributed::FrameServer;
using dynhist::distributed::SiteShipper;
using dynhist::engine::EngineOptions;
using dynhist::engine::HistogramEngine;
using dynhist::engine::RangeQuery;

constexpr int kSites = 3;
constexpr std::int64_t kDomain = 100'000;
constexpr double kWriteRate = 300'000.0;
constexpr int kGroup = 64;

struct Inputs {
  std::size_t keys = 0;
  std::size_t preload = 0;
  std::vector<std::string> names;
  std::vector<std::vector<std::int64_t>> preload_values;  // per site*keys+key
  // Generator ops: value | key << 17 | site << 22.
  std::vector<std::uint32_t> writes;
  std::vector<std::uint64_t> write_due;  // per 64-op group
  std::vector<std::pair<std::uint32_t, RangeQuery>> queries;  // cyclic
  std::vector<RangeQuery> probes;  // the correctness probe set
};

std::uint32_t OpSite(std::uint32_t op) { return op >> 22; }
std::uint32_t OpKey(std::uint32_t op) { return (op >> 17) & 31; }
std::int64_t OpVal(std::uint32_t op) { return op & ((1u << 17) - 1); }

Inputs MakeInputs(const RunConfig& cfg) {
  Inputs in;
  in.keys = cfg.toy ? 4 : 16;
  in.preload = cfg.toy ? 100 : 2000;
  dynhist::Rng rng(cfg.seed * 1000003 + 3);
  for (std::size_t k = 0; k < in.keys; ++k) {
    char name[32];
    std::snprintf(name, sizeof(name), "wire.key.%02zu", k);
    in.names.push_back(name);
  }
  for (std::size_t i = 0; i < kSites * in.keys; ++i) {
    std::vector<std::int64_t> values;
    for (std::size_t j = 0; j < in.preload; ++j) {
      values.push_back(rng.UniformInt(0, kDomain - 1));
    }
    in.preload_values.push_back(std::move(values));
  }
  in.write_due = PoissonSchedule(cfg.seed * 1000003 + 4, kWriteRate / kGroup,
                                 cfg.seconds + 1.0);
  in.writes.reserve(in.write_due.size() * kGroup);
  for (std::size_t i = 0; i < in.write_due.size() * kGroup; ++i) {
    const auto site = static_cast<std::uint32_t>(rng.UniformInt(kSites));
    const auto key = static_cast<std::uint32_t>(rng.UniformInt(in.keys));
    const auto value = static_cast<std::uint32_t>(rng.UniformInt(0, kDomain - 1));
    in.writes.push_back(value | key << 17 | site << 22);
  }
  for (int i = 0; i < 65536 + 64; ++i) {
    const std::int64_t lo = rng.UniformInt(0, kDomain - 1);
    const RangeQuery q{lo, std::min(kDomain - 1, lo + rng.UniformInt(0, 10'000))};
    if (i < 64) {
      in.probes.push_back(q);
    } else {
      in.queries.push_back(
          {static_cast<std::uint32_t>(rng.UniformInt(in.keys)), q});
    }
  }
  return in;
}

// The system under test. Members are destroyed in reverse order, so the
// connections close before the server stops.
struct Sut {
  std::unique_ptr<FrameServer> server;
  std::vector<std::unique_ptr<HistogramEngine>> sites;
  std::vector<std::unique_ptr<SiteShipper>> shippers;
  std::vector<std::unique_ptr<FrameClient>> clients;  // one per site
  std::unique_ptr<FrameClient> query;
  std::string error;
};

EngineOptions SiteOptions() {
  EngineOptions o;
  o.kind = dynhist::engine::ShardHistogramKind::kDynamicCompressed;
  o.snapshot_every = 0;
  return o;
}

// Server start, site engines, key creation and preload, the first
// publish and ship, and the four connections.
std::unique_ptr<Sut> Setup(const Inputs& in) {
  auto sut = std::make_unique<Sut>();
  sut->server = std::make_unique<FrameServer>();
  if (!sut->server->Start(&sut->error)) return sut;
  const std::uint16_t port = sut->server->port();
  for (int s = 0; s < kSites; ++s) {
    sut->sites.push_back(std::make_unique<HistogramEngine>(SiteOptions()));
    for (std::size_t k = 0; k < in.keys; ++k) {
      sut->sites[s]->InsertBatch(in.names[k], in.preload_values[s * in.keys + k]);
    }
    sut->sites[s]->RefreshAll();
    sut->shippers.push_back(std::make_unique<SiteShipper>(
        sut->sites[s].get(), static_cast<std::uint32_t>(s + 1)));
    sut->clients.push_back(std::make_unique<FrameClient>());
    if (!sut->clients[s]->Connect("127.0.0.1", port, &sut->error)) return sut;
    sut->shippers[s]->Ship(sut->clients[s]->FrameSink());
  }
  sut->query = std::make_unique<FrameClient>();
  sut->query->Connect("127.0.0.1", port, &sut->error);
  return sut;
}

// The frame header fields the staleness log needs (layout in frame.h).
struct FrameId {
  std::uint32_t key = 0;
  std::uint64_t watermark = 0;
};
FrameId ParseFrameId(std::string_view frame) {
  FrameId id;
  std::uint32_t key_len = 0;
  if (frame.size() < 40) return id;
  std::memcpy(&key_len, frame.data() + 8, 4);
  std::memcpy(&id.watermark, frame.data() + 24, 8);
  if (frame.size() >= 40 + key_len && key_len >= 2) {
    const std::string_view key = frame.substr(40, key_len);
    id.key = static_cast<std::uint32_t>((key[key_len - 2] - '0') * 10 +
                                        (key[key_len - 1] - '0'));
  }
  return id;
}

struct Phase {
  double seconds = 0.0;
  std::uint64_t t_start = 0;
  std::uint64_t t_end = 0;
  WindowedHist group_lat;  // ns per 64-op group, from its due time
  LatHist lag;
  std::uint64_t ops = 0;
  WindowedHist query_lat;  // ns per remote query round trip
  std::vector<std::uint64_t> window_queries;
  std::uint64_t queries = 0, query_failures = 0;
  std::uint64_t ship_failures = 0, rounds = 0;
  std::vector<StaleSample> stale;
  std::size_t stale_n = 0;
  // Aggregator counters at phase start / end.
  std::uint64_t applied_before = 0, applied_after = 0;
  std::uint64_t duplicate_before = 0, duplicate_after = 0;
  std::uint64_t merges_before = 0, merges_after = 0;
};

struct Cursor {
  std::size_t write_group = 0;
  std::vector<std::uint64_t> accept_ns;  // per schedule op
  std::vector<std::uint64_t> inserts = std::vector<std::uint64_t>(kSites, 0);
  std::uint64_t query_pos = 0;
};

// Ships one site's changed keys through its client, logging each
// frame's round trip and staleness sample. False on transport failure.
bool ShipSite(Sut& sut, int s, ThreadTrace* tt, std::uint64_t root,
              Phase* ph, bool force) {
  FrameClient& client = *sut.clients[s];
  bool ok = true;
  const SiteShipper::Sink sink = [&](std::string_view frame) {
    const FrameId id = ParseFrameId(frame);
    bool sent = false;
    Traced(tt, kSpanShipFrame, root,
           [&] { sent = client.ShipFrame(frame); });
    if (!sent) {
      ok = false;
      return false;
    }
    if (ph != nullptr && ph->stale_n < ph->stale.size()) {
      ph->stale[ph->stale_n++] = {
          static_cast<std::uint32_t>(s * 32) + id.key, id.watermark, NowNs()};
    }
    return true;
  };
  Traced(tt, kSpanShip, root, [&] { sut.shippers[s]->Ship(sink, force); });
  return ok;
}

void RunPhase(Sut& sut, const Inputs& in, Tracer* tracer, Cursor* cur,
              Phase* ph) {
  const Aggregator& agg = sut.server->aggregator();
  ph->applied_before = agg.frames_applied();
  ph->duplicate_before = agg.frames_duplicate();
  ph->merges_before = agg.merges();
  ph->t_start = NowNs() + 2'000'000;
  const std::uint64_t t_stop =
      ph->t_start + static_cast<std::uint64_t>(ph->seconds * 1e9);
  ph->group_lat.SetStart(ph->t_start);
  ph->query_lat.SetStart(ph->t_start);
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    RegisterBenchThread("wire_fanin.generator");
    ThreadTrace* tt = tracer ? tracer->NewThread() : nullptr;
    std::size_t g = cur->write_group;
    const std::uint64_t offset = g < in.write_due.size() ? in.write_due[g] : 0;
    std::uint64_t ops = 0;
    for (; g < in.write_due.size(); ++g) {
      const std::uint64_t due = ph->t_start + in.write_due[g] - offset;
      if (due >= t_stop) break;
      WaitUntil(due);
      const std::uint64_t t0 = NowNs();
      ph->lag.Record(t0 - due);
      const std::uint64_t root = tt ? tt->BeginRoot() : 0;
      for (std::size_t i = g * kGroup; i < (g + 1) * kGroup; ++i) {
        const std::uint32_t op = in.writes[i];
        Traced(tt, kSpanInsert, root, [&] {
          sut.sites[OpSite(op)]->Insert(in.names[OpKey(op)], OpVal(op));
        });
        ++cur->inserts[OpSite(op)];
        cur->accept_ns[i] = NowNs();
      }
      const std::uint64_t t1 = NowNs();
      if (tt) tt->Add(kSpanWriteGroup, t0, t1, 0, root);
      ph->group_lat.Record(t1, t1 - due);
      ops += kGroup;
    }
    cur->write_group = g;
    ph->ops = ops;
  });
  threads.emplace_back([&] {
    RegisterBenchThread("wire_fanin.shipper");
    ThreadTrace* tt = tracer ? tracer->NewThread() : nullptr;
    WaitUntil(ph->t_start);
    while (NowNs() < t_stop) {
      for (int s = 0; s < kSites; ++s) {
        const std::uint64_t root = tt ? tt->BeginRoot() : 0;
        const std::uint64_t t0 = NowNs();
        Traced(tt, kSpanRefreshAll, root, [&] { sut.sites[s]->RefreshAll(); });
        if (!ShipSite(sut, s, tt, root, ph, false)) ++ph->ship_failures;
        if (tt) tt->Add(kSpanShipRound, t0, NowNs(), 0, root);
      }
      ++ph->rounds;
    }
  });
  threads.emplace_back([&] {
    RegisterBenchThread("wire_fanin.query_client");
    ThreadTrace* tt = tracer ? tracer->NewThread() : nullptr;
    std::uint64_t pos = cur->query_pos;
    WaitUntil(ph->t_start);
    while (NowNs() < t_stop) {
      const auto& [key, q] = in.queries[pos++ % in.queries.size()];
      double estimate = 0.0;
      bool ok = false;
      const std::uint64_t t0 = NowNs();
      Traced(tt, kSpanRemoteQuery, 0, [&] {
        ok = sut.query->Query(in.names[key], q.lo, q.hi, &estimate);
      });
      const std::uint64_t t1 = NowNs();
      ph->query_lat.Record(t1, t1 - t0);
      ++ph->window_queries[ph->query_lat.Window(t1)];
      ++ph->queries;
      if (!ok) ++ph->query_failures;
    }
    cur->query_pos = pos;
  });
  for (auto& t : threads) t.join();
  ph->t_end = NowNs();
  ph->applied_after = agg.frames_applied();
  ph->duplicate_after = agg.frames_duplicate();
  ph->merges_after = agg.merges();
}

Phase NewPhase(double seconds) {
  Phase ph;
  ph.seconds = seconds;
  const int windows = WindowsFor(seconds);
  ph.group_lat = WindowedHist(0, seconds, windows);
  ph.query_lat = WindowedHist(0, seconds, windows);
  ph.window_queries.assign(windows, 0);
  ph.stale.resize(static_cast<std::size_t>(seconds * 40'000) + 1024);
  return ph;
}

// Median over the phase's windows of remote queries answered per second.
double WindowQps(const Phase& ph) {
  std::vector<double> rates;
  for (const std::uint64_t n : ph.window_queries) {
    rates.push_back(static_cast<double>(n) / ph.query_lat.window_seconds());
  }
  return Median(rates);
}

}  // namespace

RunResult RunWireFanin(const RunConfig& cfg, Checks* checks) {
  RunResult result;
  Metrics& m = result.metrics;
  RegisterBenchThread("main");

  const Inputs in = MakeInputs(cfg);
  Cursor cur;
  cur.accept_ns.assign(in.writes.size(), 0);
  std::vector<Phase> phases;
  const double phase_seconds = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  phases.push_back(NewPhase(phase_seconds));
  if (cfg.trace) phases.push_back(NewPhase(phase_seconds));

  // ---- setup, repeated ----
  const double rss0 = RssMb();
  std::unique_ptr<Sut> sut;
  std::vector<double> setup;
  for (int r = 0, reps = 1; r < reps; ++r) {
    sut.reset();
    const std::uint64_t t0 = NowNs();
    sut = Setup(in);
    setup.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (r == 0) reps = SetupReps(setup[0]);
  }
  checks->Check("wire_fanin.setup", sut->error.empty(),
                sut->error.empty() ? "server up, 4 connections" : sut->error);
  if (!sut->error.empty()) return result;

  // ---- live run ----
  Tracer tracer;
  std::vector<dynhist::engine::EngineStats> traced_before;
  std::uint64_t shipped_before = 0, skipped_before = 0;
  Aggregator& agg = sut->server->aggregator();
  if (cfg.trace) {
    RunPhase(*sut, in, nullptr, &cur, &phases[0]);
    for (const auto& site : sut->sites) traced_before.push_back(site->Stats());
    for (const auto& sh : sut->shippers) {
      shipped_before += sh->frames_shipped();
      skipped_before += sh->frames_skipped();
    }
    RunPhase(*sut, in, &tracer, &cur, &phases[1]);
  } else {
    RunPhase(*sut, in, nullptr, &cur, &phases[0]);
  }
  const double mem_mb = RssMb() - rss0;
  const Phase& ph = phases.back();
  const double seconds = static_cast<double>(ph.t_end - ph.t_start) / 1e9;
  auto frames_per_s = [](const Phase& p) {
    return static_cast<double>(p.applied_after - p.applied_before) /
           (static_cast<double>(p.t_end - p.t_start) / 1e9);
  };

  // ---- staleness: exact per-(site, key) acceptance log ----
  std::vector<std::vector<std::uint64_t>> accept(kSites * 32);
  for (std::size_t i = 0; i < in.writes.size() && cur.accept_ns[i] != 0;
       ++i) {
    accept[OpSite(in.writes[i]) * 32 + OpKey(in.writes[i])].push_back(
        cur.accept_ns[i]);
  }
  auto stale_q = [&](const Phase& p, double q) {
    std::vector<std::pair<std::uint64_t, double>> stale;
    for (std::size_t i = 0; i < p.stale_n; ++i) {
      stale.emplace_back(
          p.stale[i].at_ns,
          StalenessNs(accept[p.stale[i].key], in.preload, p.stale[i]) / 1e6);
    }
    return MedianOfWindowQuantiles(stale, p.t_start, p.seconds,
                                   p.query_lat.windows(), q);
  };

  // ---- correctness: a final forced ship, then the global view must be
  // bit-identical to an in-process merge of the three sites' snapshots.
  bool final_ok = true;
  for (int s = 0; s < kSites; ++s) {
    sut->sites[s]->RefreshAll();
    final_ok = ShipSite(*sut, s, nullptr, 0, nullptr, true) && final_ok;
  }
  checks->Check("wire_fanin.final_ship", final_ok, "forced ship of every key");
  std::size_t mismatches = 0, remote_failures = 0;
  std::string first_bad;
  for (std::size_t k = 0; k < in.keys; ++k) {
    std::vector<HistogramModel> models;
    for (int s = 0; s < kSites; ++s) {
      HistogramModel model = sut->sites[s]->Snapshot(in.names[k]).model();
      if (!model.Empty()) models.push_back(std::move(model));
    }
    dynhist::distributed::SnapshotMerger merger;
    const CompiledSnapshot local = CompiledSnapshot::Compile(
        merger.MergeAndReduce(models, Aggregator::Options().merged_buckets,
                              dynhist::distributed::ReduceMode::kPieces));
    for (const RangeQuery& q : in.probes) {
      double remote = 0.0;
      if (!sut->query->Query(in.names[k], q.lo, q.hi, &remote)) {
        ++remote_failures;
        continue;
      }
      const double want = checks->Expect("wire_fanin.bit_identical",
                                         local.EstimateRange(q.lo, q.hi));
      if (remote != want) {
        ++mismatches;
        if (first_bad.empty()) {
          first_bad = in.names[k] + " [" + std::to_string(q.lo) + "," +
                      std::to_string(q.hi) + "] remote " + Num(remote) +
                      " vs in-process " + Num(want);
        }
      }
    }
  }
  checks->Check("wire_fanin.bit_identical",
                mismatches == 0 && remote_failures == 0,
                std::to_string(mismatches) + " mismatches, " +
                    std::to_string(remote_failures) +
                    " failed queries over " +
                    std::to_string(in.keys * in.probes.size()) + " probes " +
                    first_bad);
  checks->Check("wire_fanin.frames_rejected",
                static_cast<double>(agg.frames_rejected()) ==
                    checks->Expect("wire_fanin.frames_rejected", 0.0),
                std::to_string(agg.frames_rejected()));
  checks->Check("wire_fanin.protocol_errors",
                sut->server->protocol_errors() == 0,
                std::to_string(sut->server->protocol_errors()));
  std::size_t bad_counts = 0;
  for (int s = 0; s < kSites; ++s) {
    const double want = checks->Expect(
        "wire_fanin.stats_inserts",
        static_cast<double>(in.preload * in.keys + cur.inserts[s]));
    if (static_cast<double>(sut->sites[s]->Stats().inserts) != want) {
      ++bad_counts;
    }
  }
  checks->Check("wire_fanin.stats_inserts", bad_counts == 0,
                std::to_string(bad_counts) + " sites off");

  std::uint64_t failures = remote_failures;
  std::uint64_t attempted = 0;
  for (const Phase& p : phases) {
    failures += p.query_failures + p.ship_failures;
    attempted += p.ops + p.queries;
  }
  result.attempted = attempted + agg.frames_received();
  result.failed = failures + agg.frames_rejected() +
                  sut->server->protocol_errors() +
                  agg.engine().Stats().unknown_queries;

  if (!cfg.trace) {
    m.Set("setup_s", Median(setup), "s");
    m.Set("ingest_ups", static_cast<double>(ph.ops) / seconds, "updates/s");
    m.Set("write_p50_us", ph.group_lat.MedianOfWindows(0.50) / 1e3, "us");
    m.Set("query_qps", WindowQps(ph), "queries/s");
    m.Set("staleness_p50_ms", stale_q(ph, 0.50), "ms");
    m.Set("mem_mb", mem_mb, "MB");
    return result;
  }

  // ---- traced run: per-layer metrics ----
  dynhist::engine::EngineStats delta;
  for (int s = 0; s < kSites; ++s) {
    const auto d = StatsDelta(traced_before[s], sut->sites[s]->Stats());
    delta.publishes += d.publishes;
    delta.publish_skipped += d.publish_skipped;
    delta.unknown_queries += d.unknown_queries;
    delta.fallback_queries += d.fallback_queries;
  }
  SetPercentiles(&m, "engine.insert_ns", tracer.Merged(kSpanInsert), "ns");
  const double live_publish = EngineLayerMetrics(*sut->sites[0], delta, &m);
  // Local reads of the global view: the aggregator's engine, probed.
  EngineProbe(agg.engine(), in.names, [&] {
    std::vector<RangeQuery> qs;
    for (const auto& [key, q] : in.queries) qs.push_back(q);
    return qs;
  }(), true, true, &m);
  ScrapeProbe(agg.engine(), 20, &m);

  LadderInput ladder;
  ladder.ops = in.preload_values[0];
  for (std::size_t i = 0; i < in.writes.size() && cur.accept_ns[i] != 0; ++i) {
    if (OpSite(in.writes[i]) == 0 && OpKey(in.writes[i]) == 0) {
      ladder.ops.push_back(OpVal(in.writes[i]));
    }
  }
  ladder.domain = kDomain;
  ladder.kind = dynhist::engine::ShardHistogramKind::kDynamicCompressed;
  for (const auto& [key, q] : in.queries) ladder.queries.push_back(q);
  for (std::size_t k = 0; k < in.keys; ++k) {
    for (int s = 0; s < kSites; ++s) {
      ladder.published.push_back(sut->sites[s]->Snapshot(in.names[k]).model());
    }
  }
  RunLadder(ladder, live_publish, &m);

  // Live wire tier (overrides the ladder aggregator's counts).
  std::uint64_t shipped = 0, skipped = 0;
  for (const auto& sh : sut->shippers) {
    shipped += sh->frames_shipped();
    skipped += sh->frames_skipped();
  }
  const LatHist refresh = tracer.Merged(kSpanRefreshAll);
  const LatHist rtt = tracer.Merged(kSpanShipFrame);
  m.Set("shipper.refresh_ns.p50", refresh.Percentile(0.5), "ns");
  m.Set("shipper.ship_ns.p50", tracer.Merged(kSpanShip).Percentile(0.5), "ns");
  m.Set("shipper.frames_shipped", static_cast<double>(shipped - shipped_before),
        "count");
  m.Set("shipper.frames_skipped", static_cast<double>(skipped - skipped_before),
        "count");
  m.Set("net.ship_rtt_us.p50", rtt.Percentile(0.50) / 1e3, "us");
  m.Set("net.ship_rtt_us.p99", rtt.Percentile(0.99) / 1e3, "us");
  m.Set("frame_server.protocol_errors",
        static_cast<double>(sut->server->protocol_errors()), "count");
  m.Set("aggregator.frames_applied",
        static_cast<double>(ph.applied_after - ph.applied_before), "count");
  m.Set("aggregator.frames_duplicate",
        static_cast<double>(ph.duplicate_after - ph.duplicate_before),
        "count");
  m.Set("aggregator.frames_rejected",
        static_cast<double>(agg.frames_rejected()), "count");
  m.Set("aggregator.merges",
        static_cast<double>(ph.merges_after - ph.merges_before), "count");
  m.Set("aggregator.frames_per_s", frames_per_s(ph), "frames/s");

  // Wire reconciliation. A frame's key had its watermark read during the
  // site's refresh (on average half the refresh before it ends), then
  // waits for the frames shipped ahead of it and its own encode + round
  // trip; the oldest update it misses arrived one per-key inter-arrival
  // after the watermark read.
  const double frames_per_site =
      static_cast<double>(shipped - shipped_before) /
      static_cast<double>(std::max<std::uint64_t>(1, ph.rounds * kSites));
  const double per_key_gap_ns =
      1e9 / (kWriteRate / static_cast<double>(kSites * in.keys));
  const double modeled_ms =
      (refresh.Percentile(0.5) / 2 +
       (frames_per_site + 1) / 2 *
           (m.Get("frame.encode_ns") + rtt.Percentile(0.5)) -
       per_key_gap_ns) /
      1e6;
  const double measured_ms = stale_q(ph, 0.5);
  m.Set("bench.reconcile.wire_modeled_ms", modeled_ms, "ms");
  m.Set("bench.reconcile.wire_gap_pct",
        measured_ms > 0 ? 100.0 * (modeled_ms - measured_ms) / measured_ms : -1.0,
        "%");

  // Accuracy: KS of the global view against the union's exact truth.
  double ks_sum = 0.0;
  for (std::size_t k = 0; k < in.keys; ++k) {
    dynhist::FrequencyVector truth(kDomain);
    for (int s = 0; s < kSites; ++s) {
      for (const std::int64_t v : in.preload_values[s * in.keys + k]) {
        truth.Insert(v);
      }
    }
    for (std::size_t i = 0; i < in.writes.size() && cur.accept_ns[i] != 0;
         ++i) {
      if (OpKey(in.writes[i]) == k) truth.Insert(OpVal(in.writes[i]));
    }
    ks_sum += dynhist::KsStatistic(truth, agg.engine().Snapshot(in.names[k]).model());
  }
  m.Set("histogram.ks", ks_sum / static_cast<double>(in.keys), "ratio");

  m.Set("bench.write_p999_us",
        phases[0].group_lat.MedianOfWindows(0.999) / 1e3, "us");
  m.Set("bench.query_p50_us",
        phases[0].query_lat.MedianOfWindows(0.50) / 1e3, "us");
  m.Set("bench.query_p99_us",
        phases[0].query_lat.MedianOfWindows(0.99) / 1e3, "us");
  m.Set("bench.staleness_p99_ms", stale_q(phases[0], 0.99), "ms");
  m.Set("bench.generator_lag_us.p99", ph.lag.Percentile(0.99) / 1e3, "us");
  m.Set("bench.trace_overhead_pct",
        100.0 * (frames_per_s(phases[0]) - frames_per_s(phases[1])) /
            frames_per_s(phases[0]),
        "%");
  m.Set("bench.error_rate",
        static_cast<double>(result.failed) /
            static_cast<double>(std::max<std::uint64_t>(1, result.attempted)),
        "ratio");
  m.Set("bench.spans_recorded", static_cast<double>(tracer.recorded()),
        "count");
  m.Set("bench.reconcile.tolerance_pct", kReconcileTolerancePct, "%");
  WriteOutFile(cfg.out_dir, "wire_fanin-spans.json", tracer.DumpJson());
  return result;
}

}  // namespace perfbench
