#include "src/distributed/site_shipper.h"

#include "src/distributed/frame.h"

namespace dynhist::distributed {

std::size_t SiteShipper::Ship(const Sink& sink, bool force) {
  std::size_t shipped = 0;
  for (const std::string& key : engine_->Keys()) {
    const engine::EngineSnapshot snap = engine_->Snapshot(key);
    if (snap.epoch() == 0) {
      ++frames_skipped_;
      continue;
    }
    std::uint64_t& last = shipped_epoch_[key];
    if (!force && snap.epoch() <= last) {
      ++frames_skipped_;
      continue;
    }
    FrameHeader header;
    header.site_id = site_id_;
    header.key = key;
    header.epoch = snap.epoch();
    header.watermark = snap.watermark();
    const std::string frame = EncodeFrame(header, snap.compiled());
    // A frame the sink refused was not shipped: the key stays pending
    // and the next round re-sends it.
    if (!sink(frame)) break;
    if (last < snap.epoch()) last = snap.epoch();
    ++frames_shipped_;
    bytes_shipped_ += frame.size();
    ++shipped;
  }
  return shipped;
}

}  // namespace dynhist::distributed
