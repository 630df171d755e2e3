#include "src/distributed/aggregator.h"

#include <utility>

#include "src/telemetry/exposition.h"

namespace dynhist::distributed {
namespace {

engine::EngineOptions GlobalViewDefaults() {
  engine::EngineOptions o;
  // Nothing flows through this engine's shards: the aggregator
  // publishes externally, so ingest cadence and async machinery are
  // dead weight.
  o.snapshot_every = 0;
  o.async_publish = false;
  o.merge_workers = 0;
  return o;
}

std::string SiteLabel(std::uint32_t site_id) {
  return std::to_string(site_id);
}

}  // namespace

Aggregator::Options::Options() : engine(GlobalViewDefaults()) {}

Aggregator::Aggregator(Options options)
    : options_(std::move(options)),
      start_(std::chrono::steady_clock::now()),
      engine_(options_.engine) {
  metrics_.AddCallback(
      "dynhist_agg_frames_rejected_total",
      "Frames that failed validation (truncated/corrupt/stale format)",
      telemetry::MetricKind::kCounter, {},
      [this] { return static_cast<double>(frames_rejected_.load()); });
  metrics_.AddCallback(
      "dynhist_agg_merges_total",
      "Superimpose+reduce+publish rounds run over the site models",
      telemetry::MetricKind::kCounter, {},
      [this] { return static_cast<double>(merges_.load()); });
  metrics_.AddCallback(
      "dynhist_agg_sites", "Distinct sites that have shipped frames",
      telemetry::MetricKind::kGauge, {},
      [this] { return static_cast<double>(NumSites()); });
  metrics_.AddCallback(
      "dynhist_agg_keys", "Distinct keys with at least one site slot",
      telemetry::MetricKind::kGauge, {},
      [this] { return static_cast<double>(NumKeys()); });
}

std::uint64_t Aggregator::NowNs() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

Aggregator::SiteStats& Aggregator::SiteStatsFor(std::uint32_t site_id) {
  auto it = site_stats_.find(site_id);
  if (it != site_stats_.end()) return *it->second;
  auto stats = std::make_unique<SiteStats>();
  SiteStats* s = stats.get();
  site_stats_.emplace(site_id, std::move(stats));
  num_sites_.store(site_stats_.size());
  // Registering takes the registry mutex while mu_ is held; safe
  // because Collect()'s callbacks only read atomics — they never take
  // mu_, so the two locks are only ever acquired in this order.
  const telemetry::Labels labels = {{"site", SiteLabel(site_id)}};
  metrics_.AddCallback(
      "dynhist_agg_frames_received_total", "Frames received from the site",
      telemetry::MetricKind::kCounter, labels,
      [s] { return static_cast<double>(s->frames_received.load()); });
  metrics_.AddCallback(
      "dynhist_agg_frames_applied_total",
      "Frames that advanced a (site, key) watermark",
      telemetry::MetricKind::kCounter, labels,
      [s] { return static_cast<double>(s->frames_applied.load()); });
  metrics_.AddCallback(
      "dynhist_agg_frames_duplicate_total",
      "Frames dropped because the watermark did not advance",
      telemetry::MetricKind::kCounter, labels,
      [s] { return static_cast<double>(s->frames_duplicate.load()); });
  metrics_.AddCallback(
      "dynhist_agg_bytes_received_total", "Frame bytes received",
      telemetry::MetricKind::kCounter, labels,
      [s] { return static_cast<double>(s->bytes_received.load()); });
  metrics_.AddCallback(
      "dynhist_agg_site_staleness_seconds",
      "Seconds since the site's last frame arrived",
      telemetry::MetricKind::kGauge, labels, [this, s] {
        const std::uint64_t last = s->last_frame_ns.load();
        return last == 0 ? 0.0
                         : static_cast<double>(NowNs() - last) / 1e9;
      });
  return *s;
}

Aggregator::IngestResult Aggregator::Ingest(std::string_view frame_bytes,
                                            FrameError* frame_error) {
  DecodedFrame decoded;
  const FrameError err = DecodeFrame(frame_bytes, &decoded);
  if (frame_error != nullptr) *frame_error = err;
  frames_received_.fetch_add(1);
  bytes_received_.fetch_add(frame_bytes.size());
  if (err != FrameError::kOk) {
    frames_rejected_.fetch_add(1);
    return IngestResult::kRejected;
  }

  std::lock_guard<std::mutex> lock(mu_);
  SiteStats& site = SiteStatsFor(decoded.header.site_id);
  site.frames_received.fetch_add(1);
  site.bytes_received.fetch_add(frame_bytes.size());
  site.last_frame_ns.store(NowNs());

  KeyEntry& entry = keys_[decoded.header.key];
  num_keys_.store(keys_.size());
  auto [slot_it, inserted] =
      entry.sites.try_emplace(decoded.header.site_id);
  SiteSlot& slot = slot_it->second;
  if (!inserted && decoded.header.watermark <= slot.watermark) {
    // Max-watermark idempotence: re-sends and reordered stale frames
    // never reach the merge path.
    frames_duplicate_.fetch_add(1);
    site.frames_duplicate.fetch_add(1);
    return IngestResult::kDuplicate;
  }
  slot.epoch = decoded.header.epoch;
  slot.watermark = decoded.header.watermark;
  slot.model = decoded.ToModel();
  frames_applied_.fetch_add(1);
  site.frames_applied.fetch_add(1);

  // Re-merge every site's latest model for this key — k sites through
  // the same sweep + SSBM reduction k shards take — and republish the
  // global view. The global watermark is the summed site watermarks:
  // "site updates this view covers".
  std::vector<HistogramModel>& models = entry.scratch;
  models.clear();
  std::uint64_t watermark = 0;
  for (const auto& [site_id, s] : entry.sites) {
    watermark += s.watermark;
    if (!s.model.Empty()) models.push_back(s.model);
  }
  HistogramModel merged = entry.merger.MergeAndReduce(
      models, options_.merged_buckets, ReduceMode::kPieces);
  merges_.fetch_add(1);
  engine_.PublishExternal(decoded.header.key, std::move(merged), watermark);
  return IngestResult::kApplied;
}

void Aggregator::WriteMetricsPrometheus(std::string* out) const {
  telemetry::WritePrometheus(metrics_.Collect(), out);
}

}  // namespace dynhist::distributed
