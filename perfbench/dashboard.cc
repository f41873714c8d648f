// dashboard: four connections in an open loop of dashboard "pages" over
// `sales_named` (dictionary-coded string dimensions), with session defaults
// and the summary cache on.

#include <algorithm>
#include <memory>
#include <thread>

#include "common/string_util.h"
#include "server/session.h"
#include "workload/generators.h"
#include "workloads.h"

namespace perfbench {
namespace {

using pctagg::PctClient;
using pctagg::PctDatabase;
using pctagg::PctServer;

// Offered load: pages per second (each page is four queries). About a third
// of the rate at which this workload saturates a 4-vCPU host (~25 pages/s,
// where query latency grows without bound): at half of it the p95 already
// swung 3x between runs as bursts queued. The stated limit is on
// query_p95_ms at this rate.
constexpr double kPagesPerSecond = 8.0;
constexpr double kP95LimitMs = 250.0;
// Unfiltered pages per block of page kinds (see kFilters). Filtered pages
// cost ~20x unfiltered ones, so at an even split query_p50_ms would sit on
// the boundary between the two classes and flip from run to run; with 8 of
// 20 pages unfiltered (60% filtered) it sits inside the filtered class.
constexpr int kUnfilteredWeight = 8;
// Each connection closes and reopens after this many pages.
constexpr int kPagesPerSession = 5;
constexpr int kConnections = 4;

// The four panels of a page, one per connection; %s takes the page's WHERE.
constexpr const char* kPanels[kConnections] = {
    "SELECT state, Vpct(salesAmt BY state) AS pct, sum(salesAmt) AS amt "
    "FROM sales_named%s GROUP BY state",
    "SELECT state, city, Vpct(salesAmt BY city) AS pct FROM sales_named%s "
    "GROUP BY state, city",
    "SELECT state, Hpct(salesAmt BY dweek) FROM sales_named%s GROUP BY state",
    "SELECT city, dweek, Vpct(salesAmt BY dweek) AS pct FROM sales_named%s "
    "GROUP BY city, dweek",
};

// Filtered pages carry one of these filters, skewed by weight (pages per
// block of 20, beside the 8 unfiltered ones); filtered reads bypass the
// summary cache.
struct Filter {
  const char* where;
  int weight;
};
constexpr Filter kFilters[] = {
    {" WHERE state = 'CA'", 5},
    {" WHERE dweek = 'Sat' OR dweek = 'Sun'", 3},
    {" WHERE monthNo = 'Dec'", 2},
    {" WHERE state = 'TX' AND dweek = 'Mon'", 1},
    {" WHERE city = 'city07'", 1},
};
constexpr int kNumFilters = sizeof(kFilters) / sizeof(kFilters[0]);

struct Page {
  double due_ms = 0;
  int filter = -1;  // -1: unfiltered
};

// The page schedule at the fixed offered rate; page kinds come from a
// BlockMix, so every run has the same share of each filter.
std::vector<Page> Schedule(double seconds, uint64_t seed) {
  std::vector<int> weights = {kUnfilteredWeight};
  for (const Filter& f : kFilters) weights.push_back(f.weight);
  BlockMix kinds(weights, seed ^ 0xF117E5);
  std::vector<Page> pages;
  for (double due : OpenLoopSchedule(kPagesPerSecond, seconds, seed)) {
    pages.push_back({due, kinds.Next() - 1});
  }
  return pages;
}

struct Fixture {
  std::unique_ptr<PctDatabase> db;
  std::unique_ptr<PctServer> server;
};

}  // namespace

RunResult RunDashboard(const Options& opts) {
  RunResult result;
  const size_t rows = opts.smoke ? 20000 : 500000;
  Fixture fx;
  std::string setup_error;
  auto setup = [&] {
    fx.db = std::make_unique<PctDatabase>();
    fx.db->EnableSummaryCache(true);
    pctagg::Status st = fx.db->CreateTable(
        "sales_named", pctagg::GenerateSalesNamed(rows, DataSeed(opts.seed)));
    fx.server = std::make_unique<PctServer>(fx.db.get(), pctagg::ServerConfig());
    if (st.ok()) st = fx.server->Start();
    pctagg::Result<PctClient> c =
        st.ok() ? OpenSession(fx.server->port(), {})
                : pctagg::Result<PctClient>(st);
    if (!c.ok()) {
      setup_error = c.status().ToString();
      return;
    }
    c->Query("SELECT state, sum(salesAmt) FROM sales_named "
             "WHERE dweek = 'Tue' GROUP BY state");
  };
  auto teardown = [&] {
    fx.server.reset();
    fx.db.reset();
  };
  const double setup_s = TimedSetup(kSetups, setup);
  if (!setup_error.empty()) {
    result.Fail("setup: " + setup_error);
    return result;
  }

  const std::vector<Page> pages = Schedule(opts.seconds, opts.seed);
  const pctagg::QueryOptions defaults = pctagg::Session(0, 0).query_options();
  Scrape before;
  if (opts.trace) before = ScrapeStats(fx.server->port());
  const double rss_start = ProcStatus("VmRSS");
  // Request (page p, panel j) lives at index p * kConnections + j.
  std::vector<Request> requests(pages.size() * kConnections);
  PhaseClock clock;
  RssSampler rss(&clock);
  std::unique_ptr<QueueSampler> sampler;
  if (opts.trace) sampler = std::make_unique<QueueSampler>(fx.server.get(), &clock);
  std::vector<std::thread> conns;
  for (int j = 0; j < kConnections; ++j) {
    conns.emplace_back([&, j] {
      PctClient client;
      for (size_t p = 0; p < pages.size(); ++p) {
        Request& r = requests[p * kConnections + static_cast<size_t>(j)];
        r.id = p * kConnections + static_cast<size_t>(j);
        r.conn = j;
        r.filtered = pages[p].filter >= 0;
        r.tmpl = j + kConnections * (pages[p].filter + 1);
        r.options = defaults;
        r.sql = pctagg::StrFormat(
            kPanels[j], r.filtered ? kFilters[pages[p].filter].where : "");
        r.t.due_ms = pages[p].due_ms;
        clock.SleepUntil(r.t.due_ms);
        if (p % kPagesPerSession == 0) {
          client.Close();
          pctagg::Result<PctClient> c = OpenSession(fx.server->port(), {});
          if (!c.ok()) {
            r.t.sent_ms = r.t.done_ms = clock.NowMs();
            r.error = "connect: " + c.status().ToString();
            continue;
          }
          client = std::move(*c);
        }
        TimedCall(client, clock, &r);
        r.sampler_on = sampler && QueueSampler::OnAt(r.t.sent_ms);
      }
    });
  }
  for (std::thread& t : conns) t.join();
  if (sampler) sampler->Stop();
  rss.Stop();
  // Templates: panel j of a page of kind k (0 unfiltered, 1.. the filters)
  // is j + kConnections * k, at the page kind's share; filters differ in
  // cost several times over.
  std::vector<double> share(kConnections, kUnfilteredWeight);
  std::vector<std::string> names;
  int filtered_weight = 0;
  for (int k = 0; k <= kNumFilters; ++k) {
    for (int j = 0; j < kConnections; ++j) {
      names.push_back(pctagg::StrFormat(
          "panel%d%s", j, k == 0 ? "" : kFilters[k - 1].where));
      if (k > 0) share.push_back(kFilters[k - 1].weight);
    }
    if (k > 0) filtered_weight += kFilters[k - 1].weight;
  }
  AddQueryMetrics(requests, share, setup_s, opts.seconds,
                  rss.PeakMb(opts.seconds), &result);

  if (opts.trace) {
    auto& m = result.metrics;
    m["server.threads_end"] = ProcStatus("Threads");
    m["server.vm_growth_mb"] = (ProcStatus("VmRSS") - rss_start) / 1024.0;
    m["executor.queue_depth_max"] = static_cast<double>(sampler->max_depth());
    const Scrape delta = Delta(ScrapeStats(fx.server->port()), before);
    std::vector<LayerSample> samples;
    for (size_t i : SampleRequests(
             requests, [](const Request&) { return true; }, 2 * kConnections,
             opts.seed ^ 0x5eed)) {
      samples.push_back(ReplayRead(requests[i], *fx.server, *fx.db, clock));
    }
    double filtered = 0;
    for (const Request& r : requests) filtered += r.filtered ? 1 : 0;
    AddCommonLayerMetrics(requests, samples, delta, filtered, &result);
    AddLoadgenMetrics(requests, /*open_loop=*/true, &result);
  }

  AddTemplateNotes(requests, names, &result);
  std::vector<const Request*> reads;
  for (const Request& r : requests) reads.push_back(&r);
  CheckReads(*fx.db, reads, &result);
  result.notes.push_back(pctagg::StrFormat(
      "dashboard: sales_named %zu rows, %d connections open loop, offered "
      "%.1f pages/s (%.1f queries/s), %.0f%% of the pages filtered, "
      "sessions reopen every %d pages; p95 limit %.0f ms: %s",
      rows, kConnections, kPagesPerSecond, kPagesPerSecond * kConnections,
      100.0 * filtered_weight / (filtered_weight + kUnfilteredWeight),
      kPagesPerSession, kP95LimitMs,
      result.metrics["query_p95_ms"] <= kP95LimitMs ? "met" : "MISSED"));
  teardown();
  return result;
}

}  // namespace perfbench
