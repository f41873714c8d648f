#ifndef PERFBENCH_STATS_SCRAPE_H_
#define PERFBENCH_STATS_SCRAPE_H_

// Parser for the Prometheus text the server's STATS verb returns, and the
// before/after arithmetic the per-layer counts are built from.

#include <map>
#include <string>

namespace perfbench {

// Sample name (with its label set, verbatim: `x_bucket{le="4"}`) -> value.
// Comment lines and malformed lines are skipped.
using Scrape = std::map<std::string, double>;

Scrape ParsePrometheus(const std::string& text);

// Value of `name` in `s`, 0 when absent (a family not yet registered).
double Get(const Scrape& s, const std::string& name);

// after - before for every sample in `after` (gauges included, so read
// gauges from `after` directly rather than from the delta).
Scrape Delta(const Scrape& after, const Scrape& before);

// Quantile q of a log2-bucketed histogram family `name` in `s` (usually a
// delta), interpolated linearly inside the bucket that holds it, as
// Prometheus' histogram_quantile does. 0 when the family has no samples.
double HistogramQuantile(const Scrape& s, const std::string& name, double q);

// A ratio reported together with its base, so a reader can tell 1/2 from
// 500/1000.
struct Ratio {
  double num = 0;
  double den = 0;
  double value() const { return den > 0 ? num / den : 0.0; }
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_SCRAPE_H_
