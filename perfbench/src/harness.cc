#include "harness.h"

#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "build_info.h"
#include "src/histogram/compiled_snapshot.h"

namespace perfbench {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void WaitUntil(std::uint64_t due_ns) {
  while (NowNs() < due_ns) {
  }
}

void SleepThenSpinUntil(std::uint64_t due_ns) {
  constexpr std::uint64_t kSpinNs = 250'000;
  const std::uint64_t now = NowNs();
  if (now + kSpinNs < due_ns) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(due_ns - now - kSpinNs));
  }
  WaitUntil(due_ns);
}

void SleepUntil(std::uint64_t due_ns) {
  const std::uint64_t now = NowNs();
  if (now < due_ns) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
  }
}

namespace {
std::atomic<double> g_consumed{0.0};
}  // namespace

void Consume(double v) { g_consumed.store(v, std::memory_order_relaxed); }

double RssMb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  if (!(statm >> size >> resident)) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// ---- LatHist ---------------------------------------------------------------

std::size_t LatHist::BucketFor(std::uint64_t v) {
  if (v < 32) return static_cast<std::size_t>(v);
  const int e = std::bit_width(v) - 1;  // >= 5
  const std::uint64_t sub = (v >> (e - 5)) & 31;
  return 32 + static_cast<std::size_t>(e - 5) * 32 +
         static_cast<std::size_t>(sub);
}

double LatHist::BucketLow(std::size_t i) {
  if (i < 32) return static_cast<double>(i);
  const std::size_t e = (i - 32) / 32 + 5;
  const std::size_t sub = (i - 32) % 32;
  return std::ldexp(static_cast<double>(32 + sub), static_cast<int>(e) - 5);
}

double LatHist::BucketWidth(std::size_t i) {
  if (i < 32) return 1.0;
  const std::size_t e = (i - 32) / 32 + 5;
  return std::ldexp(1.0, static_cast<int>(e) - 5);
}

void LatHist::Record(std::uint64_t ns) {
  ++counts_[BucketFor(ns)];
  ++count_;
  sum_ += static_cast<double>(ns);
  min_ = std::min(min_, ns);
  max_ = std::max(max_, ns);
}

void LatHist::Merge(const LatHist& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double LatHist::Percentile(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_ - 1);
  double seen = 0.0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (counts_[i] == 0) continue;
    const double c = static_cast<double>(counts_[i]);
    if (rank < seen + c) {
      const double frac = (rank - seen + 0.5) / c;
      const double v = BucketLow(i) + frac * BucketWidth(i);
      return std::clamp(v, static_cast<double>(min_),
                        static_cast<double>(max_));
    }
    seen += c;
  }
  return static_cast<double>(max_);
}

WindowedHist::WindowedHist(std::uint64_t t0_ns, double seconds, int windows)
    : t0_(t0_ns),
      len_(std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(seconds * 1e9 / windows))),
      w_(static_cast<std::size_t>(windows)) {}

std::size_t WindowedHist::Window(std::uint64_t at_ns) const {
  const std::uint64_t i = at_ns <= t0_ ? 0 : (at_ns - t0_) / len_;
  return std::min<std::size_t>(i, w_.size() - 1);
}

void WindowedHist::Record(std::uint64_t at_ns, std::uint64_t v) {
  w_[Window(at_ns)].Record(v);
}

void WindowedHist::Merge(const WindowedHist& other) {
  for (std::size_t i = 0; i < w_.size() && i < other.w_.size(); ++i) {
    w_[i].Merge(other.w_[i]);
  }
}

double WindowedHist::MedianOfWindows(double q) const {
  std::vector<double> per;
  for (const LatHist& h : w_) {
    if (h.count() > 0) per.push_back(h.Percentile(q));
  }
  return Median(per);
}

int WindowsFor(double seconds) {
  return std::clamp(static_cast<int>(std::lround(seconds)), 1, 60);
}

double MedianOfWindowQuantiles(
    const std::vector<std::pair<std::uint64_t, double>>& samples,
    std::uint64_t t0_ns, double seconds, int windows, double q) {
  const WindowedHist layout(t0_ns, seconds, windows);
  std::vector<std::vector<double>> per(static_cast<std::size_t>(windows));
  for (const auto& [at, v] : samples) per[layout.Window(at)].push_back(v);
  std::vector<double> quantiles;
  for (auto& w : per) {
    if (!w.empty()) quantiles.push_back(Quantile(std::move(w), q));
  }
  return Median(quantiles);
}

int SetupReps(double first_seconds) {
  if (!(first_seconds > 0.0)) return 7;
  return std::clamp(static_cast<int>(0.25 / first_seconds), 7, 201);
}

std::vector<std::uint64_t> PoissonSchedule(std::uint64_t seed,
                                           double rate_per_s,
                                           double seconds) {
  dynhist::Rng rng(seed);
  std::vector<std::uint64_t> due;
  const double mean_gap_ns = 1e9 / rate_per_s;
  double t = 0.0;
  while (true) {
    t += rng.Exponential(mean_gap_ns);
    if (t >= seconds * 1e9) break;
    due.push_back(static_cast<std::uint64_t>(t));
  }
  return due;
}

// ---- Tracing ---------------------------------------------------------------

const char* SpanName(int span) {
  static const char* const kNames[kSpanCount] = {
      "bench.write_group",      "bench.query_run",
      "engine.insert",          "engine.record_feedback",
      "engine.estimate_string", "engine.estimate_handle",
      "engine.snapshot",        "engine.flush_all",
      "engine.refresh_all",     "telemetry.scrape",
      "shipper.round",          "shipper.ship",
      "net.ship_frame",         "net.remote_query",
  };
  return kNames[span];
}

ThreadTrace::ThreadTrace(int tid, std::size_t raw_capacity)
    : tid_(tid), raw_capacity_(raw_capacity) {
  raw_.reserve(raw_capacity);
}

std::uint64_t ThreadTrace::BeginRoot() {
  sampled_ = (roots_++ % kSampleEvery) == 0;
  return next_id_++;
}

void ThreadTrace::Add(int name, std::uint64_t start_ns, std::uint64_t end_ns,
                      std::uint64_t parent, std::uint64_t id) {
  hist_[name].Record(end_ns - start_ns);
  ++recorded_;
  const bool keep = parent == 0 ? sampled_ || roots_ == 0 : sampled_;
  if (keep && raw_.size() < raw_capacity_) {
    raw_.push_back(RawSpan{id != 0 ? id : next_id_++, parent, start_ns,
                           end_ns, name, tid_});
  }
}

ThreadTrace* Tracer::NewThread() {
  std::lock_guard<std::mutex> lock(mu_);
  threads_.push_back(std::make_unique<ThreadTrace>(
      static_cast<int>(threads_.size()) + 1, 1 << 14));
  return threads_.back().get();
}

LatHist Tracer::Merged(int name) const {
  std::lock_guard<std::mutex> lock(mu_);
  LatHist merged;
  for (const auto& t : threads_) merged.Merge(t->hist(name));
  return merged;
}

std::uint64_t Tracer::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& t : threads_) n += t->recorded();
  return n;
}

std::string Tracer::DumpJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t origin = ~std::uint64_t{0};
  for (const auto& t : threads_) {
    for (const RawSpan& s : t->raw()) origin = std::min(origin, s.start_ns);
  }
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char buf[256];
  for (const auto& t : threads_) {
    for (const RawSpan& s : t->raw()) {
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                    "\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{"
                    "\"id\":%llu,\"parent\":%llu}}",
                    first ? "" : ",", SpanName(s.name),
                    static_cast<double>(s.start_ns - origin) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.tid,
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent));
      out += buf;
      first = false;
    }
  }
  out += "]}\n";
  return out;
}

// ---- Environment -----------------------------------------------------------

namespace {

std::mutex g_env_mu;
std::vector<std::pair<std::string, std::string>> g_threads;

std::string CpuList(const cpu_set_t& set) {
  std::string out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &set)) continue;
    int end = c;
    while (end + 1 < CPU_SETSIZE && CPU_ISSET(end + 1, &set)) ++end;
    if (!out.empty()) out += ",";
    out += std::to_string(c);
    if (end > c) out += "-" + std::to_string(end);
    c = end;
  }
  return out;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

void RegisterBenchThread(const std::string& name) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  cpu_set_t set;
  CPU_ZERO(&set);
  std::string cpus = "unknown";
  if (sched_getaffinity(0, sizeof(set), &set) == 0) cpus = CpuList(set);
  std::lock_guard<std::mutex> lock(g_env_mu);
  for (auto& [n, c] : g_threads) {
    if (n == name) {
      c = cpus;
      return;
    }
  }
  g_threads.emplace_back(name, cpus);
}

std::string EnvironmentJson(std::uint64_t seed) {
  std::string governor = "unreadable";
  std::ifstream gov("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  if (gov && std::getline(gov, governor)) {
  } else {
    governor = "unreadable";
  }
  std::ostringstream os;
  os << "{\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
     << ",\"governor\":\"" << JsonEscape(governor) << "\""
     << ",\"compiler\":\"" << JsonEscape(PERFBENCH_COMPILER) << "\""
     << ",\"flags\":\"" << JsonEscape(PERFBENCH_FLAGS) << "\""
     << ",\"build_type\":\"" << JsonEscape(PERFBENCH_BUILD_TYPE) << "\""
     << ",\"simd_active\":"
     << (dynhist::compiled_internal::SimdActive() ? "true" : "false")
     << ",\"seed\":" << seed << ",\"threads\":{";
  std::lock_guard<std::mutex> lock(g_env_mu);
  for (std::size_t i = 0; i < g_threads.size(); ++i) {
    os << (i ? "," : "") << "\"" << JsonEscape(g_threads[i].first)
       << "\":\"" << g_threads[i].second << "\"";
  }
  os << "}}";
  return os.str();
}

// ---- Metrics / checks ------------------------------------------------------

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  if (!values_.count(name)) order_.push_back(name);
  values_[name] = {value, unit};
}

double Metrics::Get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second.first;
}

std::string Metrics::Table() const {
  std::string out;
  char buf[256];
  for (const std::string& name : order_) {
    const auto& [value, unit] = values_.at(name);
    std::snprintf(buf, sizeof(buf), "  %-40s %16.6g %s\n", name.c_str(),
                  value, unit.c_str());
    out += buf;
  }
  return out;
}

std::string Metrics::Json() const {
  std::string out = "{";
  char buf[128];
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const auto& [value, unit] = values_.at(order_[i]);
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0);
    out += (i ? "," : "");
    out += "\"" + order_[i] + "\":{\"value\":" + buf + ",\"unit\":\"" + unit +
           "\"}";
  }
  return out + "}";
}

double Checks::Expect(const std::string& name, double expected) {
  if (name != broken_) return expected;
  consulted_ = true;
  return expected + 1.0;
}

void Checks::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  if (!ok) ++failed_;
  log_.push_back(std::string(ok ? "ok   " : "FAIL ") + name + ": " + detail);
}

double StalenessNs(const std::vector<std::uint64_t>& accept_ns,
                   std::uint64_t base, const StaleSample& s) {
  if (s.watermark < base) return 0.0;
  const std::uint64_t j = s.watermark - base;  // oldest missing update
  if (j >= accept_ns.size()) return 0.0;
  const std::uint64_t t = accept_ns[j];
  if (t == 0 || t >= s.at_ns) return 0.0;
  return static_cast<double>(s.at_ns - t);
}

void WriteOutFile(const std::string& out_dir, const std::string& name,
                  const std::string& text) {
  mkdir(out_dir.c_str(), 0755);
  std::ofstream out(out_dir + "/" + name);
  out << text;
}

}  // namespace perfbench
