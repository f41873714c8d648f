#include "stats_scrape.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <utility>
#include <vector>

namespace perfbench {

Scrape ParsePrometheus(const std::string& text) {
  Scrape out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    // The value follows the last space; label values never hold spaces in
    // this exposition (only le="<number>" or le="+Inf").
    const size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0) continue;
    const std::string value = line.substr(space + 1);
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0') continue;
    out[line.substr(0, space)] = v;
  }
  return out;
}

double Get(const Scrape& s, const std::string& name) {
  auto it = s.find(name);
  return it == s.end() ? 0.0 : it->second;
}

Scrape Delta(const Scrape& after, const Scrape& before) {
  Scrape out;
  for (const auto& [name, v] : after) {
    auto it = before.find(name);
    if (it != before.end()) {
      out[name] = v - it->second;
      continue;
    }
    // The exposition drops interior histogram buckets whose cumulative count
    // already equals the total, so a bucket missing from `before` stood at
    // that family's total (its +Inf bucket; 0 if the family was absent).
    const size_t brace = name.find("_bucket{le=\"");
    const double base =
        brace == std::string::npos
            ? 0.0
            : Get(before, name.substr(0, brace) + "_bucket{le=\"+Inf\"}");
    out[name] = v - base;
  }
  return out;
}

double HistogramQuantile(const Scrape& s, const std::string& name, double q) {
  const std::string prefix = name + "_bucket{le=\"";
  std::vector<std::pair<double, double>> buckets;  // (upper bound, cumulative)
  double total = 0;
  for (auto it = s.lower_bound(prefix);
       it != s.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    const std::string le = it->first.substr(
        prefix.size(), it->first.size() - prefix.size() - 2);
    if (le == "+Inf") {
      total = it->second;
      continue;
    }
    buckets.emplace_back(std::strtod(le.c_str(), nullptr), it->second);
  }
  if (total <= 0 || buckets.empty()) return 0.0;
  std::sort(buckets.begin(), buckets.end());
  const double rank = q * total;
  double lower = 0, below = 0;
  for (const auto& [upper, cumulative] : buckets) {
    if (cumulative >= rank) {
      const double in_bucket = cumulative - below;
      if (in_bucket <= 0) return upper;
      return lower + (upper - lower) * (rank - below) / in_bucket;
    }
    lower = upper;
    below = cumulative;
  }
  return buckets.back().first;
}

}  // namespace perfbench
