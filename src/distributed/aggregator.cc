#include "src/distributed/aggregator.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "src/telemetry/exposition.h"

namespace dynhist::distributed {
namespace {

engine::EngineOptions GlobalViewOptions() {
  engine::EngineOptions o;
  o.shards = 1;
  o.snapshot_every = 0;
  o.async_publish = false;
  o.merge_workers = 0;
  return o;
}

}  // namespace

Aggregator::Aggregator() : Aggregator(Options()) {}

Aggregator::Aggregator(Options options)
    : options_(std::move(options)),
      start_(std::chrono::steady_clock::now()),
      engine_(GlobalViewOptions()) {}

std::uint64_t Aggregator::NowNs() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

std::size_t Aggregator::NumSites() const {
  std::lock_guard<std::mutex> lock(mu_);
  return site_stats_.size();
}

std::size_t Aggregator::NumKeys() const {
  std::lock_guard<std::mutex> lock(mu_);
  return keys_.size();
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
  SiteStats& site = site_stats_[decoded.header.site_id];
  ++site.frames_received;
  site.bytes_received += frame_bytes.size();
  site.last_frame_ns = NowNs();

  KeyEntry& entry = keys_[decoded.header.key];
  const std::uint32_t site_id = decoded.header.site_id;
  const auto slot_it = std::lower_bound(
      entry.slots.begin(), entry.slots.end(), site_id,
      [](const SiteSlot& s, std::uint32_t id) { return s.site_id < id; });
  const auto i = static_cast<std::size_t>(slot_it - entry.slots.begin());
  if (slot_it == entry.slots.end() || slot_it->site_id != site_id) {
    entry.slots.insert(slot_it, SiteSlot{site_id, 0});
    entry.models.insert(entry.models.begin() + static_cast<std::ptrdiff_t>(i),
                        HistogramModel());
  } else if (decoded.header.watermark <= slot_it->watermark) {
    // Max-watermark idempotence: re-sends and reordered stale frames
    // never reach the merge path.
    frames_duplicate_.fetch_add(1);
    ++site.frames_duplicate;
    return IngestResult::kDuplicate;
  }
  entry.slots[i].watermark = decoded.header.watermark;
  // The validated pieces move into the slot, one single-piece bucket
  // each.
  entry.models[i] =
      HistogramModel::FromSimpleBuckets(std::move(decoded.pieces));
  frames_applied_.fetch_add(1);
  ++site.frames_applied;

  // Re-merge every site's latest model for this key — k sites through
  // the same sweep + SSBM reduction k shards take — and republish the
  // global view. The global watermark is the summed site watermarks:
  // "site updates this view covers".
  std::uint64_t watermark = 0;
  for (const SiteSlot& s : entry.slots) watermark += s.watermark;
  const HistogramModel merged =
      merger_.MergeAndReduce(entry.models, options_.merged_buckets);
  merges_.fetch_add(1);
  engine_.PublishExternal(decoded.header.key, merged, watermark);
  return IngestResult::kApplied;
}

void Aggregator::WriteMetricsPrometheus(std::string* out) const {
  using telemetry::MetricKind;
  // The per-site counters; each site also gets a staleness gauge.
  struct SiteCounter {
    const char* name;
    const char* help;
    std::uint64_t SiteStats::*stat;
  };
  static constexpr SiteCounter kSiteCounters[] = {
      {"dynhist_agg_frames_received_total", "Frames received from the site",
       &SiteStats::frames_received},
      {"dynhist_agg_frames_applied_total",
       "Frames that advanced a (site, key) watermark",
       &SiteStats::frames_applied},
      {"dynhist_agg_frames_duplicate_total",
       "Frames dropped because the watermark did not advance",
       &SiteStats::frames_duplicate},
      {"dynhist_agg_bytes_received_total", "Frame bytes received",
       &SiteStats::bytes_received},
  };

  telemetry::MetricsSnapshot snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot.samples = {
        {"dynhist_agg_frames_rejected_total",
         "Frames that failed validation (truncated/corrupt/stale format)",
         MetricKind::kCounter, {},
         static_cast<double>(frames_rejected_.load())},
        {"dynhist_agg_merges_total",
         "Superimpose+reduce+publish rounds run over the site models",
         MetricKind::kCounter, {}, static_cast<double>(merges_.load())},
        {"dynhist_agg_sites", "Distinct sites that have shipped frames",
         MetricKind::kGauge, {}, static_cast<double>(site_stats_.size())},
        {"dynhist_agg_keys", "Distinct keys with at least one site slot",
         MetricKind::kGauge, {}, static_cast<double>(keys_.size())},
    };
    const std::uint64_t now_ns = NowNs();
    for (const auto& [site_id, site] : site_stats_) {
      const telemetry::Labels labels = {{"site", std::to_string(site_id)}};
      for (const SiteCounter& row : kSiteCounters) {
        snapshot.samples.push_back({row.name, row.help, MetricKind::kCounter,
                                    labels,
                                    static_cast<double>(site.*row.stat)});
      }
      snapshot.samples.push_back(
          {"dynhist_agg_site_staleness_seconds",
           "Seconds since the site's last frame arrived", MetricKind::kGauge,
           labels, static_cast<double>(now_ns - site.last_frame_ns) / 1e9});
    }
  }
  telemetry::WritePrometheus(snapshot, out);
}

}  // namespace dynhist::distributed
