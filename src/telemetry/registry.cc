#include "src/telemetry/registry.h"

#include <utility>

#include "src/common/check.h"

namespace dynhist::telemetry {
namespace {

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  const auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(name[0])) return false;
  for (const char c : name) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

}  // namespace

void MetricsRegistry::AddCallback(std::string name, std::string help,
                                  MetricKind kind, Labels labels,
                                  std::function<double()> read) {
  DH_CHECK(ValidMetricName(name));
  DH_CHECK(read != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  callbacks_.push_back(CallbackMetric{std::move(name), std::move(help),
                                      kind, std::move(labels),
                                      std::move(read)});
}

LogHistogram* MetricsRegistry::AddHistogram(std::string name,
                                            std::string help,
                                            LogBucketer bucketer,
                                            Labels labels) {
  DH_CHECK(ValidMetricName(name));
  std::lock_guard<std::mutex> lock(mu_);
  histograms_.emplace_back(std::move(name), std::move(help),
                           std::move(labels), std::move(bucketer));
  return &histograms_.back().histogram;
}

MetricsSnapshot MetricsRegistry::Collect() const {
  MetricsSnapshot snapshot;
  std::lock_guard<std::mutex> lock(mu_);
  snapshot.samples.reserve(callbacks_.size());
  for (const auto& cb : callbacks_) {
    snapshot.samples.push_back(
        MetricSample{cb.name, cb.help, cb.kind, cb.labels, cb.read()});
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& h : histograms_) {
    snapshot.histograms.push_back(
        HistogramSample{h.name, h.help, h.labels, h.histogram.Snapshot()});
  }
  return snapshot;
}

}  // namespace dynhist::telemetry
