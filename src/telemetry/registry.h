// Lock-light metrics registry: scrape-time callback metrics and
// log-bucketed histograms with stable handles.
//
// Registration (cold, construction time) takes the registry mutex; an
// AddHistogram hands back a pointer into registry-owned storage that
// stays valid for the registry's lifetime. The hot path then touches
// only that handle — a handful of relaxed atomic RMWs per Record — and
// never the mutex. Collect() (cold: an exposition scrape) takes the
// mutex, reads every instrument, and materializes a plain
// MetricsSnapshot for the writers in exposition.h.
//
// Callback metrics cover values that are cheaper to compute at scrape
// time than to maintain — queue depth, an atomic someone else owns. The
// callback runs under the registry mutex during Collect(), so it must not
// re-enter the registry and should only read (typically a few atomics).
// Owners with many similar series (the engine's per-key series) append
// them to the collected snapshot themselves instead of registering each.

#ifndef DYNHIST_TELEMETRY_REGISTRY_H_
#define DYNHIST_TELEMETRY_REGISTRY_H_

#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/telemetry/log_histogram.h"

namespace dynhist::telemetry {

/// Metric labels, e.g. {{"key", "orders.amount"}}. Order is preserved
/// into the exposition output.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind { kCounter, kGauge };

/// One scalar sample in a collected snapshot.
struct MetricSample {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  Labels labels;
  double value = 0.0;
};

/// One histogram in a collected snapshot.
struct HistogramSample {
  std::string name;
  std::string help;
  Labels labels;
  LogHistogramSnapshot snapshot;
};

/// Everything a scrape saw, as plain values. Samples appear in
/// collection order; the exposition writers group them by family.
struct MetricsSnapshot {
  std::vector<MetricSample> samples;
  std::vector<HistogramSample> histograms;
};

/// Thread-safe instrument registry; see file comment for the locking
/// story. Metric names must match Prometheus conventions
/// ([a-zA-Z_:][a-zA-Z0-9_:]*, checked) — one family name may be
/// registered many times with different labels.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// A metric whose value is computed at scrape time by `read` (which
  /// runs under the registry mutex — keep it to a few atomic loads).
  void AddCallback(std::string name, std::string help, MetricKind kind,
                   Labels labels, std::function<double()> read);

  LogHistogram* AddHistogram(std::string name, std::string help,
                             LogBucketer bucketer, Labels labels = {});

  MetricsSnapshot Collect() const;

 private:
  // Histograms hold atomics (immovable), so they are constructed in
  // place inside the deque.
  struct NamedHistogram {
    NamedHistogram(std::string n, std::string h, Labels l, LogBucketer b)
        : name(std::move(n)),
          help(std::move(h)),
          labels(std::move(l)),
          histogram(std::move(b)) {}

    std::string name;
    std::string help;
    Labels labels;
    LogHistogram histogram;
  };
  struct CallbackMetric {
    std::string name;
    std::string help;
    MetricKind kind;
    Labels labels;
    std::function<double()> read;
  };

  mutable std::mutex mu_;
  // Deque: handles are pointers into it, so storage must not move.
  std::deque<NamedHistogram> histograms_;
  std::vector<CallbackMetric> callbacks_;
};

}  // namespace dynhist::telemetry

#endif  // DYNHIST_TELEMETRY_REGISTRY_H_
