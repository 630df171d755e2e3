// Workload `ingest`: one key, engine defaults (8 shards, batch 64, DADO,
// sync publish every 8,192 updates), 3 closed-loop writers calling the
// string-keyed Insert/Delete, 1 open-loop reader at 20k estimates/s.
// Values are Zipf(1.0) over the paper's 5,001-value domain with ranks
// scattered over the domain; 10% of each writer's ops delete one of its
// own earlier inserts. Most time goes to shard push/drain/apply and the
// inline publish; the skew makes batch coalescing matter.

#include <algorithm>
#include <cmath>
#include <numeric>
#include <thread>

#include "harness.h"
#include "ladder.h"
#include "src/common/zipf.h"
#include "src/data/frequency_vector.h"
#include "src/engine/histogram_engine.h"
#include "src/metrics/ks.h"

namespace perfbench {

namespace {

using dynhist::engine::EngineSnapshot;
using dynhist::engine::HistogramEngine;
using dynhist::engine::RangeQuery;

constexpr int kWriters = 3;
constexpr std::int64_t kDomain = 5001;
constexpr double kReaderQps = 20'000.0;
constexpr int kGroup = 64;
constexpr const char* kKey = "ingest.key";
constexpr std::uint64_t kDistributionSeed = 0x1d157;

// One writer's cyclic op block. Every delete removes one of the block's
// own earlier inserts, so the block can be replayed any number of times.
std::vector<std::int64_t> WriterBlock(std::uint64_t seed, std::size_t n,
                                      const dynhist::ZipfDistribution& zipf,
                                      const std::vector<std::int64_t>& rank) {
  dynhist::Rng rng(seed);
  std::vector<std::int64_t> ops;
  std::vector<std::int64_t> live;
  ops.reserve(n);
  while (ops.size() < n) {
    if (!live.empty() && rng.UniformDouble() < 0.10) {
      const std::size_t i = rng.UniformInt(live.size());
      ops.push_back(EncodeDelete(live[i]));
      live[i] = live.back();
      live.pop_back();
    } else {
      const std::int64_t v = rank[zipf.Sample(rng)];
      ops.push_back(v);
      live.push_back(v);
    }
  }
  return ops;
}

struct Inputs {
  std::vector<std::vector<std::int64_t>> blocks;  // per writer
  std::vector<RangeQuery> queries;
  std::vector<std::uint64_t> reader_due;  // per 64-query run, whole run
};

// Everything one phase (a stretch of live run) leaves behind.
struct Phase {
  double seconds = 0.0;
  std::uint64_t t_start = 0;
  std::uint64_t t_end = 0;          // after the final FlushAll + RefreshAll
  std::uint64_t base_updates = 0;   // key's update count at phase start
  std::vector<WindowedHist> group_lat;  // per writer, ns per 64-op group
  std::vector<std::vector<std::uint64_t>> window_ops;  // per writer
  std::vector<std::vector<std::uint64_t>> group_end;   // per writer
  std::vector<std::size_t> groups;  // per writer, groups logged
  WindowedHist query_lat;           // ns per query (run from due / 64)
  LatHist lag;                      // ns the reader started late
  std::uint64_t queries = 0;
  std::vector<StaleSample> stale;
  std::size_t stale_n = 0;
};

// Persistent writer cursors and issued-op tallies across phases.
struct Cursor {
  std::vector<std::size_t> pos = std::vector<std::size_t>(kWriters, 0);
  std::uint64_t inserts = 0;
  std::uint64_t deletes = 0;
  std::size_t reader_run = 0;
};

void RunPhase(HistogramEngine& engine, const Inputs& in, Tracer* tracer,
              Cursor* cur, Phase* ph) {
  const std::size_t log_cap = ph->group_end[0].size();
  ph->t_start = NowNs() + 2'000'000;
  const std::uint64_t t_stop =
      ph->t_start + static_cast<std::uint64_t>(ph->seconds * 1e9);
  for (WindowedHist& h : ph->group_lat) h.SetStart(ph->t_start);
  ph->query_lat.SetStart(ph->t_start);
  std::vector<std::uint64_t> inserts(kWriters, 0), deletes(kWriters, 0);

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      RegisterBenchThread("ingest.writer" + std::to_string(w));
      ThreadTrace* tt = tracer ? tracer->NewThread() : nullptr;
      const std::vector<std::int64_t>& block = in.blocks[w];
      std::size_t pos = cur->pos[w];
      std::size_t g = 0;
      std::uint64_t ins = 0, del = 0;
      WaitUntil(ph->t_start);
      while (NowNs() < t_stop) {
        const std::uint64_t root = tt ? tt->BeginRoot() : 0;
        const std::uint64_t t0 = NowNs();
        for (int i = 0; i < kGroup; ++i) {
          const std::int64_t e = block[pos++ % block.size()];
          if (IsDelete(e)) {
            Traced(tt, kSpanInsert, root, [&] { engine.Delete(kKey, ~e); });
            ++del;
          } else {
            Traced(tt, kSpanInsert, root, [&] { engine.Insert(kKey, e); });
            ++ins;
          }
        }
        const std::uint64_t t1 = NowNs();
        if (tt) tt->Add(kSpanWriteGroup, t0, t1, 0, root);
        ph->group_lat[w].Record(t1, t1 - t0);
        ph->window_ops[w][ph->group_lat[w].Window(t1)] += kGroup;
        if (g < log_cap) ph->group_end[w][g++] = t1;
      }
      cur->pos[w] = pos;
      ph->groups[w] = g;
      inserts[w] = ins;
      deletes[w] = del;
    });
  }
  threads.emplace_back([&] {
    RegisterBenchThread("ingest.reader");
    ThreadTrace* tt = tracer ? tracer->NewThread() : nullptr;
    const std::size_t nq = in.queries.size();
    std::size_t run = cur->reader_run;
    std::uint64_t offset = run < in.reader_due.size() ? in.reader_due[run] : 0;
    std::uint64_t queries = 0;
    while (run < in.reader_due.size()) {
      const std::uint64_t due = ph->t_start + in.reader_due[run] - offset;
      if (due >= t_stop) break;
      // The reader is sparse (a run every 3.2 ms on average), so it
      // leaves its core to the three writers between runs: spinning
      // there made ingest throughput collapse whenever the host took CPU
      // away.
      SleepThenSpinUntil(due);
      const std::uint64_t t0 = NowNs();
      ph->lag.Record(t0 - due);
      const std::uint64_t root = tt ? tt->BeginRoot() : 0;
      const std::size_t base = (run * kGroup) % (nq - kGroup + 1);
      double acc = 0.0;
      for (std::size_t j = base; j < base + kGroup; ++j) {
        Traced(tt, kSpanEstimateString, root, [&] {
          acc += engine.EstimateRange(kKey, in.queries[j].lo,
                                      in.queries[j].hi);
        });
      }
      const std::uint64_t t1 = NowNs();
      if (tt) tt->Add(kSpanQueryRun, t0, t1, 0, root);
      ph->query_lat.Record(t1, (t1 - due) / kGroup);
      queries += kGroup;
      Consume(acc);
      if (ph->stale_n < ph->stale.size()) {
        EngineSnapshot snap;
        Traced(tt, kSpanSnapshot, 0, [&] { snap = engine.Snapshot(kKey); });
        ph->stale[ph->stale_n++] = {0, snap.watermark(), NowNs()};
      }
      ++run;
    }
    cur->reader_run = run;
    ph->queries = queries;
  });
  for (auto& t : threads) t.join();
  ThreadTrace* tt = tracer ? tracer->NewThread() : nullptr;
  Traced(tt, kSpanFlushAll, 0, [&] { engine.FlushAll(); });
  Traced(tt, kSpanRefreshAll, 0, [&] { engine.RefreshAll(); });
  ph->t_end = NowNs();
  for (int w = 0; w < kWriters; ++w) {
    cur->inserts += inserts[w];
    cur->deletes += deletes[w];
  }
}

// (time, age in ms of the oldest missing update) per staleness sample.
// With three writers the key's acceptance order is only known per 64-op
// group, so an update's acceptance time is interpolated inside its group.
std::vector<std::pair<std::uint64_t, double>> IngestStalenessMs(
    const Phase& ph) {
  std::vector<std::uint64_t> ends;
  for (int w = 0; w < kWriters; ++w) {
    ends.insert(ends.end(), ph.group_end[w].begin(),
                ph.group_end[w].begin() + ph.groups[w]);
  }
  std::sort(ends.begin(), ends.end());
  std::vector<std::pair<std::uint64_t, double>> out;
  for (std::size_t i = 0; i < ph.stale_n; ++i) {
    const StaleSample& s = ph.stale[i];
    const std::uint64_t missing = s.watermark + 1;  // 1-based update index
    double staleness = 0.0;
    if (missing > ph.base_updates) {
      const std::uint64_t k = (missing - ph.base_updates - 1) / kGroup;
      if (k < ends.size()) {
        const double prev =
            k == 0 ? static_cast<double>(ph.t_start)
                   : static_cast<double>(ends[k - 1]);
        const double frac =
            static_cast<double>((missing - ph.base_updates - 1) % kGroup + 1) /
            kGroup;
        const double accepted =
            prev + frac * (static_cast<double>(ends[k]) - prev);
        const double at = static_cast<double>(s.at_ns);
        if (accepted < at) staleness = at - accepted;
      }
    }
    out.emplace_back(s.at_ns, staleness / 1e6);
  }
  return out;
}

// Median over the phase's windows of updates completed per second; the
// final FlushAll + RefreshAll is charged to the last window.
double WindowRate(const Phase& ph) {
  const int windows = ph.query_lat.windows();
  const double len = ph.query_lat.window_seconds();
  const double tail =
      static_cast<double>(ph.t_end - ph.t_start) / 1e9 - ph.seconds;
  std::vector<double> rates;
  for (int i = 0; i < windows; ++i) {
    std::uint64_t ops = 0;
    for (const auto& w : ph.window_ops) ops += w[i];
    rates.push_back(static_cast<double>(ops) /
                    (len + (i == windows - 1 ? tail : 0.0)));
  }
  return Median(rates);
}

Phase NewPhase(const Inputs& in, double seconds) {
  Phase ph;
  ph.seconds = seconds;
  const int windows = WindowsFor(seconds);
  const std::size_t cap =
      static_cast<std::size_t>(seconds * 8e6 / kGroup) + 1024;
  ph.group_lat.assign(kWriters, WindowedHist(0, seconds, windows));
  ph.window_ops.assign(kWriters, std::vector<std::uint64_t>(windows, 0));
  ph.query_lat = WindowedHist(0, seconds, windows);
  ph.group_end.assign(kWriters, std::vector<std::uint64_t>(cap, 0));
  ph.groups.assign(kWriters, 0);
  ph.stale.resize(in.reader_due.size() + 1);
  return ph;
}

}  // namespace

RunResult RunIngest(const RunConfig& cfg, Checks* checks) {
  RunResult result;
  Metrics& m = result.metrics;
  RegisterBenchThread("main");

  // ---- inputs (not timed) ----
  Inputs in;
  const dynhist::ZipfDistribution zipf(kDomain, 1.0);
  std::vector<std::int64_t> rank(kDomain);
  std::iota(rank.begin(), rank.end(), 0);
  // The value distribution (which values the Zipf ranks land on) is
  // part of the workload, fixed across seeds; the seed draws the sample.
  dynhist::Rng dist_rng(kDistributionSeed);
  for (std::size_t i = rank.size() - 1; i > 0; --i) {
    std::swap(rank[i], rank[dist_rng.UniformInt(i + 1)]);
  }
  dynhist::Rng rng(cfg.seed * 1000003 + 1);
  const std::size_t block = cfg.toy ? (1u << 13) : (1u << 20);
  for (int w = 0; w < kWriters; ++w) {
    in.blocks.push_back(
        WriterBlock(cfg.seed * 1000003 + 100 + w, block, zipf, rank));
  }
  for (int i = 0; i < 65536; ++i) {
    const std::int64_t lo = rng.UniformInt(0, kDomain - 1);
    in.queries.push_back({lo, std::min(kDomain - 1, lo + rng.UniformInt(0, 500))});
  }
  in.reader_due = PoissonSchedule(cfg.seed * 1000003 + 7, kReaderQps / kGroup,
                                  cfg.seconds + 1.0);
  Cursor cur;
  std::vector<Phase> phases;
  const double phase_seconds = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  phases.push_back(NewPhase(in, phase_seconds));
  if (cfg.trace) phases.push_back(NewPhase(in, phase_seconds));

  // ---- setup: engine construction + key creation, repeated ----
  const double rss0 = RssMb();
  std::unique_ptr<HistogramEngine> engine;
  std::vector<double> setup;
  for (int r = 0, reps = 1; r < reps; ++r) {
    engine.reset();
    const std::uint64_t t0 = NowNs();
    engine = std::make_unique<HistogramEngine>(dynhist::engine::EngineOptions{});
    engine->Resolve(kKey);
    engine->RefreshSnapshot(kKey);  // readers start from the empty epoch 1
    setup.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (r == 0) reps = SetupReps(setup[0]);
  }

  // ---- live run ----
  Tracer tracer;
  dynhist::engine::EngineStats traced_before;
  if (cfg.trace) {
    RunPhase(*engine, in, nullptr, &cur, &phases[0]);
    phases[1].base_updates = cur.inserts + cur.deletes;
    traced_before = engine->Stats();
    RunPhase(*engine, in, &tracer, &cur, &phases[1]);
  } else {
    RunPhase(*engine, in, nullptr, &cur, &phases[0]);
  }
  const double mem_mb = RssMb() - rss0;
  const Phase& ph = phases.back();

  WindowedHist group = ph.group_lat[0];
  for (int w = 1; w < kWriters; ++w) group.Merge(ph.group_lat[w]);
  auto stale_q = [&](const Phase& p, double q) {
    return MedianOfWindowQuantiles(IngestStalenessMs(p), p.t_start, p.seconds,
                                   group.windows(), q);
  };

  // ---- correctness ----
  const double expected_total = static_cast<double>(cur.inserts) -
                                static_cast<double>(cur.deletes);
  const double published = engine->Snapshot(kKey).TotalCount();
  const double live = engine->LiveTotalCount(kKey);
  const auto stats = engine->Stats(kKey);
  // The published model's mass is a floating-point sum over merged
  // pieces, so it matches to rounding; the shards' live mass is exact.
  checks->Check("ingest.published_total",
                std::fabs(published - checks->Expect("ingest.published_total",
                                                     expected_total)) <=
                    1e-9 * expected_total,
                "published " + Num(published) + " vs inserts-deletes " +
                    Num(expected_total));
  checks->Check("ingest.live_total",
                live == checks->Expect("ingest.live_total", expected_total),
                "shards " + std::to_string(live));
  checks->Check("ingest.stats_inserts",
                static_cast<double>(stats.inserts) ==
                    checks->Expect("ingest.stats_inserts",
                                   static_cast<double>(cur.inserts)),
                std::to_string(stats.inserts) + " vs issued " +
                    std::to_string(cur.inserts));
  checks->Check("ingest.stats_deletes",
                static_cast<double>(stats.deletes) ==
                    checks->Expect("ingest.stats_deletes",
                                   static_cast<double>(cur.deletes)),
                std::to_string(stats.deletes) + " vs issued " +
                    std::to_string(cur.deletes));
  const auto all = engine->Stats();
  result.attempted = cur.inserts + cur.deletes + all.queries;
  result.failed = all.unknown_queries + all.publish_rejected;

  if (!cfg.trace) {
    m.Set("setup_s", Median(setup), "s");
    m.Set("ingest_ups", WindowRate(ph), "updates/s");
    m.Set("write_p50_us", group.MedianOfWindows(0.50) / 1e3, "us");
    m.Set("query_qps",
          static_cast<double>(ph.queries) /
              (static_cast<double>(ph.t_end - ph.t_start) / 1e9),
          "queries/s");
    m.Set("staleness_p50_ms", stale_q(ph, 0.50), "ms");
    m.Set("mem_mb", mem_mb, "MB");
    return result;
  }

  // ---- traced run: per-layer metrics ----
  const auto delta = StatsDelta(traced_before, engine->Stats());
  SetPercentiles(&m, "engine.insert_ns", tracer.Merged(kSpanInsert), "ns");
  SetPercentiles(&m, "engine.estimate_string_ns",
                 tracer.Merged(kSpanEstimateString), "ns");
  const double live_publish = EngineLayerMetrics(*engine, delta, &m);
  EngineProbe(*engine, {kKey}, in.queries, false, true, &m);
  ScrapeProbe(*engine, 20, &m);

  LadderInput ladder;
  ladder.ops.assign(in.blocks[0].begin(),
                    in.blocks[0].begin() +
                        std::min<std::size_t>(in.blocks[0].size(), 1 << 18));
  ladder.domain = kDomain;
  ladder.kind = dynhist::engine::ShardHistogramKind::kDynamicAdo;
  ladder.queries = in.queries;
  ladder.published.push_back(engine->Snapshot(kKey).model());
  RunLadder(ladder, live_publish, &m);

  // Accuracy: KS of the published snapshot against the exact truth.
  dynhist::FrequencyVector truth(kDomain);
  for (int w = 0; w < kWriters; ++w) {
    const auto& b = in.blocks[w];
    const std::size_t issued = cur.pos[w];
    std::vector<std::int64_t> net(kDomain, 0);
    for (const std::int64_t e : b) net[OpValue(e)] += IsDelete(e) ? -1 : 1;
    const std::size_t full = issued / b.size();
    for (std::int64_t v = 0; v < kDomain; ++v) {
      for (std::int64_t c = 0; c < net[v] * static_cast<std::int64_t>(full);
           ++c) {
        truth.Insert(v);
      }
    }
    for (std::size_t i = 0; i < issued % b.size(); ++i) {
      if (IsDelete(b[i])) {
        truth.Delete(OpValue(b[i]));
      } else {
        truth.Insert(b[i]);
      }
    }
  }
  m.Set("histogram.ks", dynhist::KsStatistic(truth, engine->Snapshot(kKey).model()),
        "ratio");

  WireProbe(*engine, &m);
  // Tails from the untraced half (see README: not steady enough across
  // runs to be end-to-end metrics).
  WindowedHist untraced = phases[0].group_lat[0];
  for (int w = 1; w < kWriters; ++w) untraced.Merge(phases[0].group_lat[w]);
  m.Set("bench.write_p999_us", untraced.MedianOfWindows(0.999) / 1e3, "us");
  m.Set("bench.query_p50_us",
        phases[0].query_lat.MedianOfWindows(0.50) / 1e3, "us");
  m.Set("bench.query_p99_us",
        phases[0].query_lat.MedianOfWindows(0.99) / 1e3, "us");
  m.Set("bench.staleness_p99_ms", stale_q(phases[0], 0.99), "ms");
  m.Set("bench.generator_lag_us.p99", ph.lag.Percentile(0.99) / 1e3, "us");
  m.Set("bench.trace_overhead_pct",
        100.0 * (WindowRate(phases[0]) - WindowRate(phases[1])) /
            WindowRate(phases[0]),
        "%");
  m.Set("bench.error_rate",
        static_cast<double>(result.failed) /
            static_cast<double>(std::max<std::uint64_t>(1, result.attempted)),
        "ratio");
  m.Set("bench.spans_recorded", static_cast<double>(tracer.recorded()),
        "count");
  m.Set("bench.reconcile.tolerance_pct", kReconcileTolerancePct, "%");
  std::string engine_trace;
  engine->WriteTraceJson(&engine_trace);
  WriteOutFile(cfg.out_dir, "ingest-engine-trace.json", engine_trace);
  WriteOutFile(cfg.out_dir, "ingest-spans.json", tracer.DumpJson());
  return result;
}

}  // namespace perfbench
