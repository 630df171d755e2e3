#include "src/telemetry/trace_ring.h"

#include <atomic>
#include <bit>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace dynhist::telemetry {

const char* const kTraceEventNames[3] = {"publish", "merge", "flush"};

namespace {

// Dense per-thread ids: chrome://tracing wants small integers, and
// std::thread::id has no portable numeric projection.
std::uint32_t ThisThreadId() {
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t id = next.fetch_add(1);
  return id;
}

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  if (n > 0) out->append(buf, static_cast<std::size_t>(n));
}

// JSON string escaping for key names (quotes, backslashes, control chars).
void AppendJsonString(std::string* out, const char* s) {
  out->push_back('"');
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      AppendF(out, "\\u%04x", c);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

}  // namespace

TraceRing::TraceRing(std::size_t capacity)
    : start_(std::chrono::steady_clock::now()) {
  if (capacity > 0) {
    slots_.resize(std::bit_ceil(capacity < 2 ? std::size_t{2} : capacity));
  }
}

std::uint64_t TraceRing::NowNs() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

void TraceRing::Record(TraceEvent event) {
  if (slots_.empty()) return;
  event.tid = ThisThreadId();
  std::lock_guard<std::mutex> lock(mu_);
  slots_[next_ & (slots_.size() - 1)] = event;
  ++next_;
}

std::uint64_t TraceRing::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_;
}

std::uint64_t TraceRing::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_ > slots_.size() ? next_ - slots_.size() : 0;
}

std::vector<TraceEvent> TraceRing::Events() const {
  std::vector<TraceEvent> events;
  std::lock_guard<std::mutex> lock(mu_);
  if (slots_.empty() || next_ == 0) return events;
  const std::uint64_t live =
      next_ < slots_.size() ? next_ : slots_.size();
  events.reserve(static_cast<std::size_t>(live));
  for (std::uint64_t i = next_ - live; i < next_; ++i) {
    events.push_back(slots_[i & (slots_.size() - 1)]);
  }
  return events;
}

void TraceRing::DumpChromeTracing(std::string* out) const {
  const std::vector<TraceEvent> events = Events();
  std::uint64_t total = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    total = next_;
  }
  const std::uint64_t dropped_events =
      total > events.size() ? total - events.size() : 0;
  AppendF(out,
          "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"recorded\":%" PRIu64
          ",\"dropped\":%" PRIu64 "},\"traceEvents\":[",
          total, dropped_events);
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) out->push_back(',');
    first = false;
    // Complete events; chrome://tracing timestamps are microseconds.
    AppendF(out, "{\"name\":\"%s\",\"cat\":\"engine\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{",
            kTraceEventNames[static_cast<int>(e.kind)],
            static_cast<double>(e.start_ns) / 1e3,
            static_cast<double>(e.duration_ns) / 1e3, e.tid);
    out->append("\"key\":");
    AppendJsonString(out, e.key);
    out->append(",\"trigger\":");
    AppendJsonString(out, e.trigger);
    AppendF(out, ",\"epoch\":%" PRIu64 "}}", e.epoch);
  }
  out->append("]}");
}

}  // namespace dynhist::telemetry
