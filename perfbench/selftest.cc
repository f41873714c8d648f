// pctbench_selftest: checks the benchmark's own arithmetic -- percentiles,
// open-loop schedules and lateness, span self time and the STATS scraper --
// on hand-worked inputs. Exits 1 on the first failed expectation.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "loadgen.h"
#include "stats_scrape.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what.c_str());
    ++failures;
  }
}

void Near(double got, double want, const std::string& what) {
  Expect(std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want)),
         what + ": got " + std::to_string(got) + " want " +
             std::to_string(want));
}

void TestPercentile() {
  using perfbench::Percentile;
  Near(Percentile({}, 0.5), 0, "empty percentile");
  Near(Percentile({7}, 0.95), 7, "single sample");
  Near(Percentile({5, 1, 4, 2, 3}, 0.5), 3, "odd median, unsorted input");
  Near(Percentile({1, 2, 3, 4}, 0.5), 2.5, "even median interpolates");
  Near(Percentile({1, 2, 3, 4, 5}, 0.95), 4.8, "p95 interpolates");
  Near(Percentile({1, 2, 3}, 0), 1, "p0 is the minimum");
  Near(Percentile({1, 2, 3}, 1), 3, "p100 is the maximum");

  using perfbench::MixPercentile;
  Near(MixPercentile({5, 1, 4, 2, 3}, {0, 0, 0, 0, 0}, {1}, 0.5), 3,
       "one stratum: the usual median");
  Near(MixPercentile({1, 2, 3, 4}, {0, 0, 0, 0}, {1}, 0.5), 2.5,
       "one stratum: even median interpolates");
  // Stratum 0 drew three samples and stratum 1 one, but both have share
  // 1/2: the lone 9 weighs as much as the three 1s together and sits at
  // position 0.75, the last 1 at 0.42, so the median is 1 + 8 * 0.25.
  Near(MixPercentile({1, 1, 1, 9}, {0, 0, 0, 1}, {1, 1}, 0.5), 3,
       "strata count by share, not by draws");
  Near(MixPercentile({1, 1, 1, 9}, {0, 0, 0, 1}, {1, 1}, 0.9), 9,
       "upper tail lies in the heavier stratum");
  Near(MixPercentile({1, 2, 9}, {0, 0, 1}, {1, 0}, 0.5), 1.5,
       "a stratum with no share is ignored");
  Near(MixPercentile({1, 2}, {0, 0}, {1, 1}, 0.5), 1.5,
       "a stratum without samples drops out");
  Near(MixPercentile({}, {}, {1}, 0.5), 0, "empty mix percentile");
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(i);
  Expect(perfbench::SamplesBeyond(v, 0.95) == 10,
         "200 samples leave 10 beyond p95");
  Expect(perfbench::SamplesBeyond({1, 1, 1}, 0.5) == 0,
         "ties are not beyond");
}

void TestOpenLoop() {
  perfbench::OpenLoopSend s;
  s.due_ms = 100;
  s.sent_ms = 130;
  s.done_ms = 150;
  Near(s.LatencyMs(), 50, "latency charged from the due time");
  Near(s.LagMs(), 30, "lag is send - due");
  s.sent_ms = 90;  // a sender can never be early, but clamp anyway
  Near(s.LagMs(), 0, "early send has no lag");

  const auto a = perfbench::OpenLoopSchedule(8, 10, 42);
  const auto b = perfbench::OpenLoopSchedule(8, 10, 42);
  const auto c = perfbench::OpenLoopSchedule(8, 10, 43);
  Expect(a.size() == 80, "exactly rate * seconds sends");
  Expect(a == b, "same seed, same schedule");
  Expect(a != c && c.size() == 80, "another seed moves sends, not the count");
  bool in_slot = true;
  for (size_t i = 0; i < a.size(); ++i) {
    in_slot = in_slot && a[i] >= i * 125.0 && a[i] < (i + 1) * 125.0;
  }
  Expect(in_slot, "each send inside its own 1/rate slot");
  Expect(perfbench::OpenLoopSchedule(0, 10, 1).empty(), "zero rate");

  perfbench::BlockMix mix({3, 0, 1}, 7), again({3, 0, 1}, 7);
  bool exact = true, same = true;
  for (int block = 0; block < 5; ++block) {
    int count[3] = {0, 0, 0};
    for (int i = 0; i < 4; ++i) {
      const int t = mix.Next();
      same = same && t == again.Next();
      if (t >= 0 && t < 3) ++count[t];
    }
    exact = exact && count[0] == 3 && count[1] == 0 && count[2] == 1;
  }
  Expect(exact, "every block holds each template exactly its weight");
  Expect(same, "same seed, same order");
}

void TestSelfTimes() {
  using perfbench::Span;
  // client [0,100] holds server [10,90]; the server's two children ran
  // inside it and overlap ([20,50] and [40,70] cover 50 ms).
  std::vector<Span> live = {
      {1, "client", -1, 0, 100},
      {1, "server", 0, 10, 90},
      {1, "a", 1, 20, 50},
      {1, "b", 1, 40, 70},
  };
  double clamped = -1;
  auto self = perfbench::SelfTimes(live, &clamped);
  Near(self[0], 20, "client self = 100 - 80");
  Near(self[1], 30, "server self = 80 - union(30, 30 overlapping 10)");
  Near(self[2], 30, "leaf self is its duration");
  Near(clamped, 0, "nothing clamped");

  // A child replayed later covers its own duration; a child that claims
  // more than its parent is clamped to zero self time and reported.
  std::vector<Span> replay = {
      {2, "server", -1, 0, 50},
      {2, "executor", 0, 200, 240},   // replay: 40 ms
      {2, "query", 1, 300, 345},      // replay: 45 ms > executor's 40
      {2, "scan", 2, 400, 420},       // replay: 20 ms
  };
  self = perfbench::SelfTimes(replay, &clamped);
  Near(self[0], 10, "replayed child covers its duration");
  Near(self[1], 0, "over-claiming child clamps the parent at zero");
  Near(self[2], 25, "query self = 45 - 20");
  Near(clamped, 5, "the clamped 5 ms are reported");
  double sum = 0;
  for (double x : self) sum += x;
  Near(sum - clamped, 50, "self times minus clamped add up to the root");

  // A child straddling the parent's end covers only the clipped part.
  std::vector<Span> straddle = {{3, "p", -1, 0, 10}, {3, "c", 0, 8, 14}};
  self = perfbench::SelfTimes(straddle, nullptr);
  Near(self[0], 8, "straddling child clipped to the parent");
}

void TestScrape() {
  const std::string before_text =
      "# HELP pctagg_summary_cache_hits_total Hits.\n"
      "# TYPE pctagg_summary_cache_hits_total counter\n"
      "pctagg_summary_cache_hits_total 10\n"
      "pctagg_server_pool_queue_depth 3\n"
      "pctagg_mqo_batch_window_ms_bucket{le=\"1\"} 2\n"
      "pctagg_mqo_batch_window_ms_bucket{le=\"+Inf\"} 2\n"
      "pctagg_mqo_batch_window_ms_sum 1\n"
      "pctagg_mqo_batch_window_ms_count 2\n"
      "garbage line without value\n";
  const std::string after_text =
      "pctagg_summary_cache_hits_total 25\n"
      "pctagg_summary_cache_misses_total 5\n"
      "pctagg_server_pool_queue_depth 1\n"
      "pctagg_mqo_batch_window_ms_bucket{le=\"1\"} 2\n"
      "pctagg_mqo_batch_window_ms_bucket{le=\"3\"} 6\n"
      "pctagg_mqo_batch_window_ms_bucket{le=\"7\"} 12\n"
      "pctagg_mqo_batch_window_ms_bucket{le=\"+Inf\"} 12\n";
  const perfbench::Scrape before = perfbench::ParsePrometheus(before_text);
  const perfbench::Scrape after = perfbench::ParsePrometheus(after_text);
  Expect(before.size() == 6, "comments and malformed lines skipped");
  Near(perfbench::Get(before, "absent_total"), 0, "absent sample is 0");
  const perfbench::Scrape d = perfbench::Delta(after, before);
  Near(perfbench::Get(d, "pctagg_summary_cache_hits_total"), 15,
       "counter delta");
  Near(perfbench::Get(d, "pctagg_summary_cache_misses_total"), 5,
       "family new since the first scrape");
  // Bucket le=3 was elided from the first scrape (all observations were
  // already below it), so its base is that scrape's total, 2.
  Near(perfbench::Get(d, "pctagg_mqo_batch_window_ms_bucket{le=\"3\"}"), 4,
       "elided bucket takes the earlier total as its base");
  // Delta histogram: 0 in (0,1], 4 in (1,3], 6 in (3,7]; 10 in all.
  Near(perfbench::HistogramQuantile(d, "pctagg_mqo_batch_window_ms", 0.5),
       3 + 4 * (5.0 - 4) / 6, "p50 interpolated inside its bucket");
  Near(perfbench::HistogramQuantile(d, "pctagg_mqo_batch_window_ms", 0.2),
       1 + 2 * (2.0 - 0) / 4, "p20 in the second bucket");
  Near(perfbench::HistogramQuantile(d, "absent", 0.5), 0, "empty histogram");
  perfbench::Ratio r{15, 20};
  Near(r.value(), 0.75, "ratio");
  Near(perfbench::Ratio{3, 0}.value(), 0, "ratio over an empty base");
}

}  // namespace

int main() {
  TestPercentile();
  TestOpenLoop();
  TestSelfTimes();
  TestScrape();
  if (failures == 0) std::printf("pctbench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
