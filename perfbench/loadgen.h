#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

// Load-generator arithmetic shared by every workload and checked by
// pctbench_selftest: percentiles, open-loop schedules and their lateness,
// and span self-time. Nothing here touches the pctagg libraries.

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

// Linear-interpolated percentile (p in [0, 1]) of `values`, the usual
// "type 7" definition: rank p*(n-1) between the two nearest order
// statistics. Empty input gives 0.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

// Percentile of a template mix at its stated shares rather than at the
// shares a run happened to draw: a sample of stratum s (values[i] has
// strata[i]) weighs share[s] / (samples of s), so each stratum counts by its
// share however many of its requests a run or window holds. Order
// statistics sit at the midpoints of their cumulative weights, interpolated
// linearly between (with equal weights the median is the usual one).
// Strata without samples drop out and the others are rescaled; samples of a
// stratum with no share (index past `share`, or share 0) are ignored.
double MixPercentile(const std::vector<double>& values,
                     const std::vector<int>& strata,
                     const std::vector<double>& share, double p);

// Number of samples strictly above the p-th percentile value; the
// benchmark reports a percentile only with at least ten of them.
size_t SamplesBeyond(const std::vector<double>& values, double p);

// Due times (ms from the start of the timed phase) of an open-loop sender
// at a fixed offered rate: exactly floor(rate * seconds) sends, one in each
// slot of 1/rate seconds at a seeded offset inside its slot, so the count
// never varies with the seed while arrivals still bunch. Same seed, same
// times.
std::vector<double> OpenLoopSchedule(double rate_per_s, double seconds,
                                     uint64_t seed);

// Template choice with the mix fixed rather than sampled: draws come in
// blocks of sum(weights), each holding template i exactly weights[i] times
// in a seeded order. Every run then sends the same shares (up to the last,
// partial block), so run-to-run spread is not mix noise.
class BlockMix {
 public:
  BlockMix(std::vector<int> weights, uint64_t seed);
  int Next();

 private:
  std::vector<int> weights_;
  std::vector<int> block_;
  size_t pos_ = 0;
  std::mt19937_64 gen_;
};

// One open-loop send: when it was due and when it actually went out, both
// in milliseconds from the start of the timed phase, and when its answer
// arrived. Latency is charged from the due time, so a generator that falls
// behind charges the wait to the requests it delayed.
struct OpenLoopSend {
  double due_ms = 0;
  double sent_ms = 0;
  double done_ms = 0;
  double LatencyMs() const { return done_ms - due_ms; }
  double LagMs() const { return sent_ms > due_ms ? sent_ms - due_ms : 0.0; }
};

// One timed interval of a request at one layer. Spans of one request share
// `request`; `parent` is the index of the enclosing span in the same vector
// (-1 for a root).
struct Span {
  uint64_t request = 0;
  std::string layer;
  int parent = -1;
  double start_ms = 0;
  double end_ms = 0;
  double DurationMs() const { return end_ms - start_ms; }
};

// Self time of every span: its duration minus the time its direct children
// cover. Children that ran inside the parent's interval cover the union of
// their intervals clipped to it. A child replayed at another time (its
// interval lies outside the parent's) covers its own duration instead, so a
// replayed layer below a live call still subtracts. Self time never goes
// below zero; `*clamped_ms`, when given, receives the total amount clamped
// away, which is time the layers cannot account for.
std::vector<double> SelfTimes(const std::vector<Span>& spans,
                              double* clamped_ms = nullptr);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
