#include "tests/test_util.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace dynhist::testing {

namespace {

bool ClockValued(const std::string& family) {
  const auto ends_with = [&](std::string_view suffix) {
    return family.size() > suffix.size() &&
           family.compare(family.size() - suffix.size(), suffix.size(),
                          suffix) == 0;
  };
  return family.find("nanos") != std::string::npos || ends_with("_ns") ||
         ends_with("_seconds");
}

double SegmentCost(const std::vector<ValueFreq>& entries, std::size_t a,
                   std::size_t b, DeviationPolicy policy) {
  // Data-extent convention (matches the production DP): the bucket spans
  // [v_a, v_b + 1); internal gaps count, the trailing gap does not.
  const double left = static_cast<double>(entries[a].value);
  const double right = static_cast<double>(entries[b].value) + 1.0;
  const double width = right - left;
  double total = 0.0;
  for (std::size_t i = a; i <= b; ++i) total += entries[i].freq;
  const double avg = total / width;
  double cost = 0.0;
  double nonzero = 0.0;
  for (std::size_t i = a; i <= b; ++i) {
    const double dev = entries[i].freq - avg;
    cost += policy == DeviationPolicy::kSquared ? dev * dev : std::fabs(dev);
    nonzero += 1.0;
  }
  const double zeros = width - nonzero;
  cost += policy == DeviationPolicy::kSquared ? zeros * avg * avg
                                              : zeros * avg;
  return cost;
}

double Recurse(const std::vector<ValueFreq>& entries, std::size_t start,
               std::int64_t buckets, DeviationPolicy policy) {
  const std::size_t d = entries.size();
  if (buckets == 1) return SegmentCost(entries, start, d - 1, policy);
  double best = std::numeric_limits<double>::infinity();
  // The current bucket takes entries [start..end]; leave at least one entry
  // per remaining bucket.
  for (std::size_t end = start;
       end + static_cast<std::size_t>(buckets) - 1 < d; ++end) {
    const double cost = SegmentCost(entries, start, end, policy) +
                        Recurse(entries, end + 1, buckets - 1, policy);
    best = std::min(best, cost);
  }
  return best;
}

}  // namespace

double BruteForceOptimalCost(const std::vector<ValueFreq>& entries,
                             std::int64_t buckets, DeviationPolicy policy) {
  if (entries.empty()) return 0.0;
  if (static_cast<std::size_t>(buckets) >= entries.size()) return 0.0;
  return Recurse(entries, 0, buckets, policy);
}

std::vector<std::string> ExpositionInventory(const std::string& text) {
  std::vector<std::string> inventory;
  std::string family;
  std::string type;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::size_t space = line.find(' ', 7);
      family = line.substr(7, space - 7);
      type = line.substr(space + 1);
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    if (family == "dynhist_key_staleness_seconds") continue;
    const std::size_t split = line.rfind(' ');
    const std::string series = line.substr(0, split);
    std::string value = line.substr(split + 1);
    if (ClockValued(family)) {
      const bool bucket = series.find("_bucket{") != std::string::npos;
      if (bucket && series.find("le=\"+Inf\"") == std::string::npos) continue;
      if (!bucket && series.find("_count") == std::string::npos) value = '*';
    }
    inventory.push_back(family + " " + type + " " + series + " " + value);
  }
  std::sort(inventory.begin(), inventory.end());
  return inventory;
}

}  // namespace dynhist::testing
