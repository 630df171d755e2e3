// Shared plumbing of the repo benchmark: clocks, latency histograms,
// open-loop pacing, the in-memory span tracer, metric output and the
// per-run environment record. Everything the workloads measure goes
// through these types, so the three workloads report alike.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
std::uint64_t NowNs();

/// Spins until `due_ns`, so a dense open-loop sender starts on schedule
/// unless preempted: it counts as one of the workload's busy threads.
/// (Sleeping between its sends measured less steady: a virtual machine's
/// idle vCPU can take tens of microseconds to wake.)
void WaitUntil(std::uint64_t due_ns);

/// For a sparse open-loop sender: sleeps until 250 us before `due_ns`,
/// then spins, so it does not hold a core between sends.
void SleepThenSpinUntil(std::uint64_t due_ns);

/// Sleeps until `due_ns` (for threads that share a core).
void SleepUntil(std::uint64_t due_ns);

/// Resident set of this process now, in MiB (/proc/self/statm).
double RssMb();

/// Keeps a computed value alive so timed estimates are not optimized
/// away.
void Consume(double v);

/// `v` with all its digits (%.17g).
std::string Num(double v);

/// Median / linear-interpolated quantile of `v` (copied, then sorted).
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);

/// Fixed-size log-bucket latency histogram (32 linear sub-buckets per
/// power of two, about 3% resolution), mergeable by addition. Fixed
/// memory, so recording never allocates inside a timed loop.
class LatHist {
 public:
  void Record(std::uint64_t ns);
  void Merge(const LatHist& other);
  std::uint64_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / count_; }
  /// Quantile q in [0, 1], interpolated inside the bucket and clamped to
  /// the recorded min/max. 0 when empty.
  double Percentile(double q) const;

 private:
  static constexpr std::size_t kBuckets = 32 + 59 * 32;
  static std::size_t BucketFor(std::uint64_t v);
  static double BucketLow(std::size_t i);
  static double BucketWidth(std::size_t i);

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  std::uint64_t min_ = ~std::uint64_t{0};
  std::uint64_t max_ = 0;
};

/// Latency samples of one phase split into equal time windows. The
/// end-to-end percentiles are medians over windows of each window's
/// percentile, so a burst of outside interference moves one window, not
/// the reported value.
class WindowedHist {
 public:
  WindowedHist() = default;
  WindowedHist(std::uint64_t t0_ns, double seconds, int windows);
  /// Moves the window origin (the histograms are allocated up front, so
  /// recording allocates nothing once the phase starts).
  void SetStart(std::uint64_t t0_ns) { t0_ = t0_ns; }
  /// Records `v` in the window that holds time `at_ns` (clamped).
  void Record(std::uint64_t at_ns, std::uint64_t v);
  void Merge(const WindowedHist& other);
  /// Median over windows of the window's q-quantile (empty windows
  /// skipped).
  double MedianOfWindows(double q) const;
  std::size_t Window(std::uint64_t at_ns) const;
  int windows() const { return static_cast<int>(w_.size()); }
  double window_seconds() const { return static_cast<double>(len_) / 1e9; }

 private:
  std::uint64_t t0_ = 0;
  std::uint64_t len_ = 1;
  std::vector<LatHist> w_;
};

/// Windows per phase: one per second of measurement (at least one).
int WindowsFor(double seconds);

/// Median over windows of per-window q-quantiles of timed samples
/// (at_ns, value); windows as WindowedHist.
double MedianOfWindowQuantiles(
    const std::vector<std::pair<std::uint64_t, double>>& samples,
    std::uint64_t t0_ns, double seconds, int windows, double q);

/// Open-loop schedule: Poisson arrivals at `rate_per_s` groups of work,
/// as offsets (ns) from the phase start. Seeded, so the same seed gives
/// the same schedule.
std::vector<std::uint64_t> PoissonSchedule(std::uint64_t seed,
                                           double rate_per_s,
                                           double seconds);

// ---- Tracing -------------------------------------------------------------

/// Span names. Each is one public call (or one group of calls) the
/// benchmark makes into a layer; the prefix is the layer.
enum Span : int {
  kSpanWriteGroup,      // bench: one group of 64 write calls
  kSpanQueryRun,        // bench: one timed run of 64 local estimates
  kSpanInsert,          // engine.Insert / Delete (string key)
  kSpanFeedback,        // engine.RecordFeedback
  kSpanEstimateString,  // engine.EstimateRange(string)
  kSpanEstimateHandle,  // engine.EstimateRange(KeyHandle)
  kSpanSnapshot,        // engine.Snapshot / LeasedSnapshot
  kSpanFlushAll,        // engine.FlushAll
  kSpanRefreshAll,      // engine.RefreshAll
  kSpanScrape,          // engine.WriteMetricsPrometheus
  kSpanShipRound,       // shipper: RefreshAll + Ship of one site
  kSpanShip,            // shipper: SiteShipper::Ship
  kSpanShipFrame,       // net: FrameClient::ShipFrame round trip
  kSpanRemoteQuery,     // net: FrameClient::Query round trip
  kSpanCount
};
const char* SpanName(int span);

/// One recorded span, kept for the dump at the end of the run.
struct RawSpan {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int name = 0;
  int tid = 0;
};

/// Per-thread span sink. Every span feeds its name's latency histogram;
/// the spans of every `kSampleEvery`th root span (and their children)
/// are also kept verbatim, up to a fixed capacity, for the dump.
class ThreadTrace {
 public:
  ThreadTrace(int tid, std::size_t raw_capacity);

  /// Starts a root span and returns its id; the spans of every
  /// kSampleEvery-th root are kept verbatim.
  std::uint64_t BeginRoot();
  void Add(int name, std::uint64_t start_ns, std::uint64_t end_ns,
           std::uint64_t parent, std::uint64_t id = 0);

  const LatHist& hist(int name) const { return hist_[name]; }
  const std::vector<RawSpan>& raw() const { return raw_; }
  std::uint64_t recorded() const { return recorded_; }

 private:
  static constexpr std::uint64_t kSampleEvery = 256;
  int tid_;
  std::size_t raw_capacity_;
  std::uint64_t next_id_ = 1;
  std::uint64_t roots_ = 0;
  bool sampled_ = false;
  std::uint64_t recorded_ = 0;
  std::array<LatHist, kSpanCount> hist_;
  std::vector<RawSpan> raw_;
};

/// Owns the per-thread traces of one traced phase.
class Tracer {
 public:
  ThreadTrace* NewThread();
  /// Merged histogram of one span name across threads.
  LatHist Merged(int name) const;
  std::uint64_t recorded() const;
  /// Chrome-trace ("ph":"X") JSON of every kept span.
  std::string DumpJson() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadTrace>> threads_;
};

/// Runs `f` and, when `tt` is non-null, records it as span `name`.
template <class F>
inline void Traced(ThreadTrace* tt, int name, std::uint64_t parent, F&& f) {
  if (tt == nullptr) {
    f();
    return;
  }
  const std::uint64_t t0 = NowNs();
  f();
  tt->Add(name, t0, NowNs(), parent);
}

// ---- Environment -------------------------------------------------------

/// Records the calling thread's name and CPU affinity for the
/// environment record, and lowers its timer slack so sleeps wake on time.
/// Threads are not pinned: on a shared virtual machine letting the kernel
/// place them measured steadier than fixed pins.
void RegisterBenchThread(const std::string& name);

/// The environment record as one JSON object (nproc, per-thread
/// affinity, governor when readable, compiler/flags/build type, SIMD
/// kernel, seed).
std::string EnvironmentJson(std::uint64_t seed);

// ---- Metrics -------------------------------------------------------------

/// Named metrics with units, in insertion order, printed as the final
/// JSON line.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  double Get(const std::string& name) const;
  /// Human-readable table, one metric per line.
  std::string Table() const;
  /// The "metrics" object of the result line.
  std::string Json() const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Correctness checks of one run. A failed check fails the run.
class Checks {
 public:
  explicit Checks(std::string broken) : broken_(std::move(broken)) {}
  /// Perturbs `expected` by +1 when the run was asked to break check
  /// `name` (the self-test's liveness probe); identity otherwise.
  double Expect(const std::string& name, double expected);
  /// True when no check was asked to break, or the named one ran.
  bool broken_consulted() const { return broken_.empty() || consulted_; }
  void Check(const std::string& name, bool ok, const std::string& detail);
  bool ok() const { return failed_ == 0; }
  const std::vector<std::string>& log() const { return log_; }

 private:
  std::string broken_;
  bool consulted_ = false;
  std::size_t failed_ = 0;
  std::vector<std::string> log_;
};

// ---- Runs ----------------------------------------------------------------

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool toy = false;            // self-test sizes
  std::string break_check;     // self-test: perturb this check's expectation
  std::string out_dir = ".bench_out";
};

struct RunResult {
  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Staleness of one read: the snapshot watermark it saw and when.
struct StaleSample {
  std::uint32_t key = 0;
  std::uint64_t watermark = 0;
  std::uint64_t at_ns = 0;
};

/// Age (ns) of the oldest accepted update missing from a snapshot:
/// `accept_ns` lists one key's update acceptance times in acceptance
/// order (0 = not yet accepted), `base` is the key's update count before
/// that list starts. 0 when the snapshot missed nothing accepted by then.
double StalenessNs(const std::vector<std::uint64_t>& accept_ns,
                   std::uint64_t base, const StaleSample& s);

/// Writes `text` to `<out_dir>/<name>`, creating the directory.
void WriteOutFile(const std::string& out_dir, const std::string& name,
                  const std::string& text);

/// Set-up repetitions after a first one that took `first_seconds`: at
/// least 7, more for quick set-ups (about 0.25 s in all, at most 201);
/// setup_s is their median.
int SetupReps(double first_seconds);

/// Tolerance (percent) the layer reconciliations are judged against.
inline constexpr double kReconcileTolerancePct = 15.0;

RunResult RunIngest(const RunConfig& config, Checks* checks);
RunResult RunReadMostly(const RunConfig& config, Checks* checks);
RunResult RunWireFanin(const RunConfig& config, Checks* checks);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
