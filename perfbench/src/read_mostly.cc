// Workload `read_mostly`: 512 preloaded keys (every 8th one ST-FEEDBACK
// via SetKeyOptions), no cadence publishing (snapshot_every = 0), a
// background refresh every 20 ms and one Prometheus scrape per second.
// Two closed-loop readers pick keys by Zipf(1.0) popularity: one calls
// EstimateRange(string), the other EstimateRange(KeyHandle) on handles
// resolved at setup. One open-loop writer at 100k updates/s inserts and
// deletes on data keys and sends RecordFeedback to ST-FEEDBACK keys.
// The query path, lease/registry and many-key publishing dominate: 512
// hot keys overflow the 16-slot lease cache, and refresh cost times
// changed keys sets staleness.

#include <algorithm>
#include <cmath>
#include <cstdio>
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

using dynhist::engine::EngineOptions;
using dynhist::engine::EngineSnapshot;
using dynhist::engine::HistogramEngine;
using dynhist::engine::KeyHandle;
using dynhist::engine::RangeQuery;
using dynhist::engine::ShardHistogramKind;

constexpr std::int64_t kDomain = 5001;
constexpr double kWriteRate = 100'000.0;
constexpr int kGroup = 64;
constexpr int kStfPreload = 200;
constexpr double kStfRows = 100'000.0;  // hidden relation size of STF keys
constexpr std::size_t kStaleEvery = 64;  // reader runs per staleness sample
constexpr std::uint64_t kDistributionSeed = 0x4ead;

bool IsStf(std::size_t key) { return key % 8 == 7; }

// One writer op: a data update (`value` encoded as in ladder.h) or, on
// an ST-FEEDBACK key, a feedback observation.
struct WriteOp {
  std::uint32_t key = 0;
  std::int32_t lo = 0;  // data: encoded value; STF: range lo
  std::int32_t hi = 0;  // STF: range hi
  float actual = 0.0f;  // STF: observed cardinality
};

struct ReadOp {
  std::uint32_t key = 0;
  std::int32_t lo = 0;
  std::int32_t hi = 0;
};

struct Inputs {
  std::size_t keys = 0;
  std::vector<std::string> names;
  std::vector<std::vector<std::int64_t>> preload;  // per data key
  std::vector<std::vector<WriteOp>> stf_preload;   // per STF key
  std::vector<WriteOp> writes;                     // the whole schedule
  std::vector<std::uint64_t> write_due;            // per 64-op group
  std::vector<std::vector<ReadOp>> reads;          // per reader, cyclic
};

struct ReaderOut {
  WindowedHist query_lat;  // ns per query (run of 64 / 64)
  std::vector<std::uint64_t> window_queries;
  std::uint64_t queries = 0;
  std::vector<StaleSample> stale;
  std::size_t stale_n = 0;
};

struct Phase {
  double seconds = 0.0;
  std::uint64_t t_start = 0;
  std::uint64_t t_end = 0;
  WindowedHist group_lat;  // ns per 64-op group, from its due time
  LatHist lag;
  std::uint64_t ops = 0;
  ReaderOut readers[2];
  LatHist scrape;
  std::size_t exposition_bytes = 0;
};

struct Cursor {
  std::size_t write_group = 0;  // next schedule group
  std::vector<std::uint64_t> accept_ns;  // per schedule op, 0 = not issued
  std::vector<std::uint64_t> inserts, deletes, feedbacks;  // per key
  std::uint64_t scrapes = 0;
};

Inputs MakeInputs(const RunConfig& cfg) {
  Inputs in;
  in.keys = cfg.toy ? 32 : 512;
  const std::size_t preload = cfg.toy ? 64 : 1000;
  // Which keys are popular and which values are frequent is part of the
  // workload, fixed across seeds; the seed draws the sample.
  dynhist::Rng dist_rng(kDistributionSeed);
  dynhist::Rng rng(cfg.seed * 1000003 + 2);
  for (std::size_t k = 0; k < in.keys; ++k) {
    char name[32];
    std::snprintf(name, sizeof(name), "rm.key.%03zu", k);
    in.names.push_back(name);
  }
  // Key popularity: Zipf over keys with ranks scattered over key ids.
  const dynhist::ZipfDistribution key_zipf(in.keys, 1.0);
  std::vector<std::uint32_t> key_of_rank(in.keys);
  std::iota(key_of_rank.begin(), key_of_rank.end(), 0);
  for (std::size_t i = in.keys - 1; i > 0; --i) {
    std::swap(key_of_rank[i], key_of_rank[dist_rng.UniformInt(i + 1)]);
  }
  // Values: Zipf(1.0) over the domain, ranks scattered, shifted per key.
  const dynhist::ZipfDistribution value_zipf(kDomain, 1.0);
  std::vector<std::int64_t> value_of_rank(kDomain);
  std::iota(value_of_rank.begin(), value_of_rank.end(), 0);
  for (std::size_t i = kDomain - 1; i > 0; --i) {
    std::swap(value_of_rank[i], value_of_rank[dist_rng.UniformInt(i + 1)]);
  }
  auto value_for = [&](std::size_t key) {
    return (value_of_rank[value_zipf.Sample(rng)] +
            static_cast<std::int64_t>(key) * 977) %
           kDomain;
  };
  // STF keys observe a hidden relation with the same value distribution:
  // prefix masses over two domain copies make shifted ranges one lookup.
  std::vector<double> mass(2 * kDomain + 1, 0.0);
  for (std::size_t r = 0; r < static_cast<std::size_t>(kDomain); ++r) {
    mass[value_of_rank[r] + 1] += value_zipf.Probability(r);
    mass[value_of_rank[r] + kDomain + 1] += value_zipf.Probability(r);
  }
  for (std::size_t i = 1; i < mass.size(); ++i) mass[i] += mass[i - 1];
  auto feedback_for = [&](std::size_t key) {
    WriteOp op;
    op.key = static_cast<std::uint32_t>(key);
    op.lo = static_cast<std::int32_t>(rng.UniformInt(0, kDomain - 1));
    op.hi = static_cast<std::int32_t>(
        std::min<std::int64_t>(kDomain - 1, op.lo + rng.UniformInt(0, 500)));
    const std::int64_t shift =
        ((op.lo - static_cast<std::int64_t>(key) * 977) % kDomain + kDomain) %
        kDomain;
    op.actual = static_cast<float>(
        kStfRows * (mass[shift + op.hi - op.lo + 1] - mass[shift]));
    return op;
  };

  std::vector<std::vector<std::int64_t>> live(in.keys);
  in.preload.resize(in.keys);
  in.stf_preload.resize(in.keys);
  for (std::size_t k = 0; k < in.keys; ++k) {
    if (IsStf(k)) {
      for (int i = 0; i < kStfPreload; ++i) {
        in.stf_preload[k].push_back(feedback_for(k));
      }
    } else {
      for (std::size_t i = 0; i < preload; ++i) {
        in.preload[k].push_back(value_for(k));
      }
      live[k] = in.preload[k];
    }
  }
  // One schedule op per update, 10% of data ops deleting a live value.
  in.write_due = PoissonSchedule(cfg.seed * 1000003 + 3, kWriteRate / kGroup,
                                 cfg.seconds + 1.0);
  in.writes.reserve(in.write_due.size() * kGroup);
  for (std::size_t i = 0; i < in.write_due.size() * kGroup; ++i) {
    const std::size_t k = key_of_rank[key_zipf.Sample(rng)];
    if (IsStf(k)) {
      in.writes.push_back(feedback_for(k));
      continue;
    }
    WriteOp op;
    op.key = static_cast<std::uint32_t>(k);
    std::vector<std::int64_t>& l = live[k];
    if (!l.empty() && rng.UniformDouble() < 0.10) {
      const std::size_t j = rng.UniformInt(l.size());
      op.lo = static_cast<std::int32_t>(EncodeDelete(l[j]));
      l[j] = l.back();
      l.pop_back();
    } else {
      const std::int64_t v = value_for(k);
      op.lo = static_cast<std::int32_t>(v);
      l.push_back(v);
    }
    in.writes.push_back(op);
  }
  const std::size_t nreads = cfg.toy ? 4096 : (1u << 18);
  for (int r = 0; r < 2; ++r) {
    std::vector<ReadOp> reads;
    for (std::size_t i = 0; i < nreads; ++i) {
      ReadOp q;
      q.key = key_of_rank[key_zipf.Sample(rng)];
      q.lo = static_cast<std::int32_t>(rng.UniformInt(0, kDomain - 1));
      q.hi = static_cast<std::int32_t>(
          std::min<std::int64_t>(kDomain - 1, q.lo + rng.UniformInt(0, 500)));
      reads.push_back(q);
    }
    in.reads.push_back(std::move(reads));
  }
  return in;
}

EngineOptions ReadMostlyOptions() {
  EngineOptions o;
  o.snapshot_every = 0;
  o.background_interval_ms = 20;
  return o;
}

// Engine construction, key creation, preload and the first publish;
// returns the handles reader 1 queries through.
std::vector<KeyHandle> Setup(HistogramEngine& engine, const Inputs& in) {
  dynhist::engine::KeyOptionOverrides stf;
  stf.backend = ShardHistogramKind::kStFeedback;
  std::vector<KeyHandle> handles;
  for (std::size_t k = 0; k < in.keys; ++k) {
    if (IsStf(k)) {
      engine.SetKeyOptions(in.names[k], stf);
      for (const WriteOp& op : in.stf_preload[k]) {
        engine.RecordFeedback(in.names[k], op.lo, op.hi, op.actual);
      }
    } else {
      engine.InsertBatch(in.names[k], in.preload[k]);
    }
  }
  engine.RefreshAll();
  for (std::size_t k = 0; k < in.keys; ++k) {
    handles.push_back(engine.Resolve(in.names[k]));
  }
  return handles;
}

void RunPhase(HistogramEngine& engine, const std::vector<KeyHandle>& handles,
              const Inputs& in, Tracer* tracer, Cursor* cur, Phase* ph) {
  ph->t_start = NowNs() + 2'000'000;
  const std::uint64_t t_stop =
      ph->t_start + static_cast<std::uint64_t>(ph->seconds * 1e9);
  ph->group_lat.SetStart(ph->t_start);
  for (ReaderOut& r : ph->readers) r.query_lat.SetStart(ph->t_start);
  std::vector<std::thread> threads;
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      RegisterBenchThread(r == 0 ? "read_mostly.reader_string"
                                 : "read_mostly.reader_handle");
      ThreadTrace* tt = tracer ? tracer->NewThread() : nullptr;
      ReaderOut& out = ph->readers[r];
      const std::vector<ReadOp>& reads = in.reads[r];
      const int span = r == 0 ? kSpanEstimateString : kSpanEstimateHandle;
      std::size_t pos = 0;
      std::size_t runs = 0;
      WaitUntil(ph->t_start);
      while (NowNs() < t_stop) {
        const std::uint64_t root = tt ? tt->BeginRoot() : 0;
        double acc = 0.0;
        const std::uint64_t t0 = NowNs();
        for (int i = 0; i < kGroup; ++i) {
          const ReadOp& q = reads[pos++ % reads.size()];
          Traced(tt, span, root, [&] {
            acc += r == 0 ? engine.EstimateRange(in.names[q.key], q.lo, q.hi)
                          : engine.EstimateRange(handles[q.key], q.lo, q.hi);
          });
        }
        const std::uint64_t t1 = NowNs();
        if (tt) tt->Add(kSpanQueryRun, t0, t1, 0, root);
        out.query_lat.Record(t1, (t1 - t0) / kGroup);
        out.window_queries[out.query_lat.Window(t1)] += kGroup;
        Consume(acc);
        if (++runs % kStaleEvery == 0 && out.stale_n < out.stale.size()) {
          const std::uint32_t key = reads[(pos - 1) % reads.size()].key;
          EngineSnapshot snap;
          Traced(tt, kSpanSnapshot, 0, [&] {
            snap = r == 0 ? engine.Snapshot(in.names[key])
                          : engine.LeasedSnapshot(handles[key]);
          });
          out.stale[out.stale_n++] = {key, snap.watermark(), NowNs()};
        }
      }
      out.queries = runs * kGroup;
    });
  }
  threads.emplace_back([&] {
    RegisterBenchThread("read_mostly.writer");
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
        const WriteOp& op = in.writes[i];
        const std::string& name = in.names[op.key];
        if (IsStf(op.key)) {
          Traced(tt, kSpanFeedback, root, [&] {
            engine.RecordFeedback(name, op.lo, op.hi, op.actual);
          });
          ++cur->feedbacks[op.key];
        } else if (IsDelete(op.lo)) {
          Traced(tt, kSpanInsert, root,
                 [&] { engine.Delete(name, OpValue(op.lo)); });
          ++cur->deletes[op.key];
        } else {
          Traced(tt, kSpanInsert, root, [&] { engine.Insert(name, op.lo); });
          ++cur->inserts[op.key];
        }
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
  // This thread scrapes the exposition once per second.
  ThreadTrace* tt = tracer ? tracer->NewThread() : nullptr;
  for (int s = 1; ph->t_start + s * 1'000'000'000ULL < t_stop; ++s) {
    SleepUntil(ph->t_start + s * 1'000'000'000ULL);
    std::string text;
    const std::uint64_t t0 = NowNs();
    Traced(tt, kSpanScrape, 0, [&] { engine.WriteMetricsPrometheus(&text); });
    ph->scrape.Record(NowNs() - t0);
    ph->exposition_bytes = text.size();
    ++cur->scrapes;
  }
  for (auto& t : threads) t.join();
  Traced(tt, kSpanFlushAll, 0, [&] { engine.FlushAll(); });
  Traced(tt, kSpanRefreshAll, 0, [&] { engine.RefreshAll(); });
  ph->t_end = NowNs();
}

Phase NewPhase(double seconds) {
  Phase ph;
  ph.seconds = seconds;
  const int windows = WindowsFor(seconds);
  ph.group_lat = WindowedHist(0, seconds, windows);
  const std::size_t cap = static_cast<std::size_t>(seconds * 20'000) + 1024;
  for (ReaderOut& r : ph.readers) {
    r.query_lat = WindowedHist(0, seconds, windows);
    r.window_queries.assign(windows, 0);
    r.stale.resize(cap);
  }
  return ph;
}

// Median over the phase's windows of estimates answered per second.
double WindowQps(const Phase& ph) {
  std::vector<double> rates;
  const double len = ph.group_lat.window_seconds();
  for (int i = 0; i < ph.group_lat.windows(); ++i) {
    rates.push_back(static_cast<double>(ph.readers[0].window_queries[i] +
                                        ph.readers[1].window_queries[i]) /
                    len);
  }
  return Median(rates);
}

}  // namespace

RunResult RunReadMostly(const RunConfig& cfg, Checks* checks) {
  RunResult result;
  Metrics& m = result.metrics;
  RegisterBenchThread("main");

  const Inputs in = MakeInputs(cfg);
  Cursor cur;
  cur.accept_ns.assign(in.writes.size(), 0);
  cur.inserts.assign(in.keys, 0);
  cur.deletes.assign(in.keys, 0);
  cur.feedbacks.assign(in.keys, 0);
  std::vector<Phase> phases;
  const double phase_seconds = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  phases.push_back(NewPhase(phase_seconds));
  if (cfg.trace) phases.push_back(NewPhase(phase_seconds));

  // ---- setup, repeated ----
  const double rss0 = RssMb();
  std::unique_ptr<HistogramEngine> engine;
  std::vector<KeyHandle> handles;
  std::vector<double> setup;
  for (int r = 0, reps = 1; r < reps; ++r) {
    handles.clear();
    engine.reset();
    const std::uint64_t t0 = NowNs();
    engine = std::make_unique<HistogramEngine>(ReadMostlyOptions());
    handles = Setup(*engine, in);
    setup.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (r == 0) reps = SetupReps(setup[0]);
  }

  // ---- live run ----
  Tracer tracer;
  dynhist::engine::EngineStats traced_before;
  if (cfg.trace) {
    RunPhase(*engine, handles, in, nullptr, &cur, &phases[0]);
    traced_before = engine->Stats();
    RunPhase(*engine, handles, in, &tracer, &cur, &phases[1]);
  } else {
    RunPhase(*engine, handles, in, nullptr, &cur, &phases[0]);
  }
  const double mem_mb = RssMb() - rss0;
  const Phase& ph = phases.back();
  const double seconds = static_cast<double>(ph.t_end - ph.t_start) / 1e9;

  // ---- staleness: exact per-key acceptance log of the single writer ----
  std::vector<std::vector<std::uint64_t>> accept(in.keys);
  for (std::size_t i = 0; i < in.writes.size() && cur.accept_ns[i] != 0;
       ++i) {
    accept[in.writes[i].key].push_back(cur.accept_ns[i]);
  }
  auto stale_q = [&](const Phase& p, double q) {
    std::vector<std::pair<std::uint64_t, double>> stale;
    for (const ReaderOut& r : p.readers) {
      for (std::size_t i = 0; i < r.stale_n; ++i) {
        const StaleSample& s = r.stale[i];
        const std::uint64_t base =
            IsStf(s.key) ? kStfPreload : in.preload[s.key].size();
        stale.emplace_back(s.at_ns,
                           StalenessNs(accept[s.key], base, s) / 1e6);
      }
    }
    return MedianOfWindowQuantiles(stale, p.t_start, p.seconds,
                                   p.group_lat.windows(), q);
  };

  // ---- correctness, per key ----
  std::size_t bad_total = 0, bad_stats = 0, bad_feedback = 0;
  std::string first_bad;
  std::uint64_t issued = 0;
  for (std::size_t k = 0; k < in.keys; ++k) {
    const auto stats = engine->Stats(in.names[k]);
    issued += cur.inserts[k] + cur.deletes[k] + cur.feedbacks[k];
    if (IsStf(k)) {
      const double want = checks->Expect(
          "read_mostly.feedbacks",
          static_cast<double>(kStfPreload + cur.feedbacks[k]));
      if (static_cast<double>(stats.feedbacks) != want) {
        ++bad_feedback;
        if (first_bad.empty()) {
          first_bad = in.names[k] + " feedbacks " +
                      std::to_string(stats.feedbacks) + " vs " + Num(want);
        }
      }
      continue;
    }
    const double inserts =
        static_cast<double>(in.preload[k].size() + cur.inserts[k]);
    const double deletes = static_cast<double>(cur.deletes[k]);
    const double want_total =
        checks->Expect("read_mostly.published_total", inserts - deletes);
    const double published = engine->Snapshot(in.names[k]).TotalCount();
    if (std::fabs(published - want_total) > 1e-9 * std::max(1.0, want_total)) {
      ++bad_total;
      if (first_bad.empty()) {
        first_bad = in.names[k] + " published " + Num(published) + " vs " +
                    Num(want_total);
      }
    }
    if (static_cast<double>(stats.inserts) !=
            checks->Expect("read_mostly.stats_counts", inserts) ||
        static_cast<double>(stats.deletes) != deletes) {
      ++bad_stats;
      if (first_bad.empty()) {
        first_bad = in.names[k] + " stats " + std::to_string(stats.inserts) +
                    "/" + std::to_string(stats.deletes);
      }
    }
  }
  checks->Check("read_mostly.published_total", bad_total == 0,
                std::to_string(bad_total) + " data keys off " + first_bad);
  checks->Check("read_mostly.stats_counts", bad_stats == 0,
                std::to_string(bad_stats) + " data keys off " + first_bad);
  checks->Check("read_mostly.feedbacks", bad_feedback == 0,
                std::to_string(bad_feedback) + " STF keys off " + first_bad);
  const auto all = engine->Stats();
  result.attempted = issued + all.queries + cur.scrapes;
  result.failed = all.unknown_queries + all.publish_rejected;

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
  const auto delta = StatsDelta(traced_before, engine->Stats());
  LatHist writes = tracer.Merged(kSpanInsert);
  SetPercentiles(&m, "engine.insert_ns", writes, "ns");
  SetPercentiles(&m, "engine.estimate_string_ns",
                 tracer.Merged(kSpanEstimateString), "ns");
  SetPercentiles(&m, "engine.estimate_handle_ns",
                 tracer.Merged(kSpanEstimateHandle), "ns");
  const double live_publish = EngineLayerMetrics(*engine, delta, &m);
  EngineProbe(*engine, in.names, {}, false, false, &m);
  m.Set("telemetry.scrape_ms", tracer.Merged(kSpanScrape).Percentile(0.5) / 1e6,
        "ms");
  m.Set("telemetry.exposition_bytes", static_cast<double>(ph.exposition_bytes),
        "bytes");

  // Ladder on the hottest data key's own stream (preload, then its ops).
  std::size_t hot = 0;
  std::vector<std::size_t> ops_per_key(in.keys, 0);
  for (const WriteOp& op : in.writes) ++ops_per_key[op.key];
  for (std::size_t k = 0; k < in.keys; ++k) {
    if (!IsStf(k) && ops_per_key[k] > ops_per_key[hot]) hot = k;
  }
  LadderInput ladder;
  ladder.ops = in.preload[hot];
  for (const WriteOp& op : in.writes) {
    if (op.key == hot) ladder.ops.push_back(op.lo);
  }
  ladder.domain = kDomain;
  ladder.kind = ShardHistogramKind::kDynamicAdo;
  for (const ReadOp& q : in.reads[0]) ladder.queries.push_back({q.lo, q.hi});
  for (std::size_t k = 0; k < in.keys; ++k) {
    if (!IsStf(k)) ladder.published.push_back(engine->Snapshot(in.names[k]).model());
  }
  RunLadder(ladder, live_publish, &m);

  // Accuracy: KS of every data key's published snapshot vs exact truth.
  double ks_sum = 0.0;
  std::size_t ks_n = 0;
  std::vector<dynhist::FrequencyVector> truth;
  for (std::size_t k = 0; k < in.keys; ++k) {
    truth.emplace_back(IsStf(k) ? 1 : kDomain);
    if (!IsStf(k)) {
      for (const std::int64_t v : in.preload[k]) truth[k].Insert(v);
    }
  }
  for (std::size_t i = 0; i < in.writes.size() && cur.accept_ns[i] != 0; ++i) {
    const WriteOp& op = in.writes[i];
    if (IsStf(op.key)) continue;
    if (IsDelete(op.lo)) {
      truth[op.key].Delete(OpValue(op.lo));
    } else {
      truth[op.key].Insert(op.lo);
    }
  }
  for (std::size_t k = 0; k < in.keys; ++k) {
    if (IsStf(k)) continue;
    ks_sum += dynhist::KsStatistic(truth[k], engine->Snapshot(in.names[k]).model());
    ++ks_n;
  }
  m.Set("histogram.ks", ks_sum / static_cast<double>(ks_n), "ratio");

  WireProbe(*engine, &m);
  LatHist lag = ph.lag;
  m.Set("bench.write_p999_us",
        phases[0].group_lat.MedianOfWindows(0.999) / 1e3, "us");
  WindowedHist untraced_q = phases[0].readers[0].query_lat;
  untraced_q.Merge(phases[0].readers[1].query_lat);
  m.Set("bench.query_p50_us", untraced_q.MedianOfWindows(0.50) / 1e3, "us");
  m.Set("bench.query_p99_us", untraced_q.MedianOfWindows(0.99) / 1e3, "us");
  m.Set("bench.staleness_p99_ms", stale_q(phases[0], 0.99), "ms");
  m.Set("bench.generator_lag_us.p99", lag.Percentile(0.99) / 1e3, "us");
  m.Set("bench.trace_overhead_pct",
        100.0 * (WindowQps(phases[0]) - WindowQps(phases[1])) /
            WindowQps(phases[0]),
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
  WriteOutFile(cfg.out_dir, "read_mostly-engine-trace.json", engine_trace);
  WriteOutFile(cfg.out_dir, "read_mostly-spans.json", tracer.DumpJson());
  return result;
}

}  // namespace perfbench
