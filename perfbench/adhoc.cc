// adhoc: one connection in a closed loop of seeded ad-hoc percentage
// queries over `sales`, with SET dop 3 and the summary cache on.

#include <memory>
#include <random>

#include "common/string_util.h"
#include "server/session.h"
#include "workload/generators.h"
#include "workloads.h"

namespace perfbench {
namespace {

using pctagg::PctClient;
using pctagg::PctDatabase;
using pctagg::PctServer;
using pctagg::RequestVerb;

// One statement template. `sql` takes the WHERE clause (or "") through its
// one %s. Templates with `range_col` get a window of half the column's
// domain [lo, hi] at a seeded position (fixed selectivity, varying rows);
// the others repeat verbatim, so the summary cache can answer them.
// `set`, when given, is a session SET sent before the statement and undone
// with `reset` after it: the paper's forced materialized strategies.
struct Template {
  const char* name;
  int weight;
  RequestVerb verb;
  const char* sql;
  const char* range_col;
  int lo, hi;
  const char* set;
  const char* reset;
};

// Weights sum to 100. The materialized (SET vpct/horizontal) and OLAP
// templates are the slowest classes (~100-140 ms at the client on 500k rows,
// against ~60 ms for the fused filtered ones) and together make 16%, far
// from the 5% tail query_p95_ms reads, so the p95 falls inside them rather
// than on the boundary between them and the fused statements.
constexpr Template kTemplates[] = {
    {"vpct_item", 10, RequestVerb::kQuery,
     "SELECT itemId, Vpct(salesAmt BY itemId) AS pct FROM sales%s "
     "GROUP BY itemId",
     "monthNo", 1, 12, nullptr, nullptr},
    {"vpct_state_city", 12, RequestVerb::kQuery,
     "SELECT state, city, Vpct(salesAmt BY city) AS pct, sum(salesAmt) AS amt "
     "FROM sales%s GROUP BY state, city",
     "store", 0, 99, nullptr, nullptr},
    {"vpct_multi", 9, RequestVerb::kQuery,
     "SELECT state, dweek, Vpct(salesAmt BY dweek) AS pct_week, "
     "Vpct(salesAmt) AS pct_all FROM sales%s GROUP BY state, dweek",
     "itemId", 0, 999, nullptr, nullptr},
    {"hpct_week", 9, RequestVerb::kQuery,
     "SELECT state, Hpct(salesAmt BY dweek) FROM sales%s GROUP BY state",
     "dept", 0, 99, nullptr, nullptr},
    {"hagg_default", 8, RequestVerb::kQuery,
     "SELECT city, sum(salesAmt BY monthNo DEFAULT 0) FROM sales%s "
     "GROUP BY city",
     "store", 0, 99, nullptr, nullptr},
    {"cube3", 7, RequestVerb::kQuery,
     "SELECT state, dweek, monthNo, sum(salesAmt) AS amt FROM sales%s "
     "GROUP BY CUBE(state, dweek, monthNo)",
     "dept", 0, 99, nullptr, nullptr},
    {"dept_store_10k", 6, RequestVerb::kQuery,
     "SELECT dept, store, Vpct(salesAmt BY store) AS pct FROM sales%s "
     "GROUP BY dept, store",
     "itemId", 0, 999, nullptr, nullptr},
    {"vpct_month", 10, RequestVerb::kQuery,
     "SELECT monthNo, Vpct(salesAmt BY monthNo) AS pct FROM sales%s "
     "GROUP BY monthNo",
     nullptr, 0, 0, nullptr, nullptr},
    {"hpct_state", 7, RequestVerb::kQuery,
     "SELECT dweek, Hpct(salesAmt BY state) FROM sales%s GROUP BY dweek",
     nullptr, 0, 0, nullptr, nullptr},
    {"vpct_dweek_store", 6, RequestVerb::kQuery,
     "SELECT dweek, store, Vpct(salesAmt BY store) AS pct FROM sales%s "
     "GROUP BY dweek, store",
     nullptr, 0, 0, nullptr, nullptr},
    {"vpct_best_materialized", 4, RequestVerb::kQuery,
     "SELECT state, city, Vpct(salesAmt BY city) AS pct FROM sales%s "
     "GROUP BY state, city",
     "monthNo", 1, 12, "vpct best", "vpct auto"},
    {"hpct_case_materialized", 4, RequestVerb::kQuery,
     "SELECT city, Hpct(salesAmt BY dweek) FROM sales%s GROUP BY city",
     "store", 0, 99, "horizontal case", "horizontal auto"},
    {"olap_vpct", 8, RequestVerb::kOlap,
     "SELECT state, city, dweek, Vpct(salesAmt BY dweek) AS pct FROM sales%s "
     "GROUP BY state, city, dweek",
     nullptr, 0, 0, nullptr, nullptr},
};
constexpr int kNumTemplates = sizeof(kTemplates) / sizeof(kTemplates[0]);

// The session's degree of parallelism: one vCPU short of a 4-vCPU host.
// At `dop auto` (four workers beside the client and connection threads)
// five runs gave query_p50_ms from 54 to 71 ms and query_p95_ms from 97 to
// 137 ms. `dop 1`, `dop 2` and `dop 3` spread alike in query_p50_ms (the
// host moves a vCPU's speed by up to a third within two minutes); three
// workers keep a parallel scan and partial merge on the path and leave a
// vCPU for the client and connection threads (README.md).
// engine.dop4_speedup still measures dop 4.
constexpr const char* kDop = "dop 3";

bool Materialized(const Template& t) {
  return t.set != nullptr;
}

std::string DrawSql(const Template& t, std::mt19937_64& gen) {
  std::string where;
  if (t.range_col != nullptr) {
    const int width = (t.hi - t.lo + 1) / 2;
    std::uniform_int_distribution<int> pick(t.lo, t.hi - width + 1);
    const int a = pick(gen);
    where = pctagg::StrFormat(" WHERE %s >= %d AND %s <= %d", t.range_col, a,
                              t.range_col, a + width - 1);
  }
  return pctagg::StrFormat(t.sql, where.c_str());
}

// The session's QueryOptions for a template, as the server derives them.
pctagg::QueryOptions SessionOptions(const Template& t) {
  pctagg::Session session(0, 0);
  session.ApplySet(kDop);
  if (t.set != nullptr) session.ApplySet(t.set);
  pctagg::QueryOptions o = session.query_options();
  o.olap_baseline = t.verb == RequestVerb::kOlap;
  return o;
}

struct Fixture {
  std::unique_ptr<PctDatabase> db;
  std::unique_ptr<PctServer> server;
  PctClient client;
};

}  // namespace

RunResult RunAdhoc(const Options& opts) {
  RunResult result;
  const size_t rows = opts.smoke ? 20000 : 500000;
  Fixture fx;
  std::string setup_error;
  auto setup = [&] {
    fx.db = std::make_unique<PctDatabase>();
    fx.db->EnableSummaryCache(true);
    pctagg::Status st = fx.db->CreateTable(
        "sales", pctagg::GenerateSales(rows, DataSeed(opts.seed)));
    fx.server = std::make_unique<PctServer>(fx.db.get(), pctagg::ServerConfig());
    if (st.ok()) st = fx.server->Start();
    pctagg::Result<PctClient> c =
        st.ok() ? OpenSession(fx.server->port(), {kDop})
                : pctagg::Result<PctClient>(st);
    if (!c.ok()) {
      setup_error = c.status().ToString();
      return;
    }
    fx.client = std::move(*c);
    // Warm-up: one filtered statement (filtered reads never fill the cache).
    fx.client.Query(
        "SELECT state, sum(salesAmt) FROM sales WHERE dweek = 1 GROUP BY state");
  };
  auto teardown = [&] {
    fx.client.Close();
    fx.server.reset();
    fx.db.reset();
  };
  const double setup_s = TimedSetup(kSetups, setup);
  if (!setup_error.empty()) {
    result.Fail("setup: " + setup_error);
    return result;
  }

  std::vector<int> weights;
  for (const Template& t : kTemplates) weights.push_back(t.weight);
  BlockMix mix(weights, opts.seed);
  std::mt19937_64 gen(opts.seed ^ 0x7A6E);
  std::vector<pctagg::QueryOptions> session_options;
  for (const Template& t : kTemplates) session_options.push_back(SessionOptions(t));

  Scrape before;
  if (opts.trace) before = ScrapeStats(fx.server->port());
  const double rss_start = ProcStatus("VmRSS");
  std::vector<Request> requests;
  requests.reserve(4096);
  PhaseClock clock;
  RssSampler rss(&clock);
  std::unique_ptr<QueueSampler> sampler;
  if (opts.trace) sampler = std::make_unique<QueueSampler>(fx.server.get(), &clock);
  const double end_ms = opts.seconds * 1000.0;
  while (clock.NowMs() < end_ms) {
    const int ti = mix.Next();
    const Template& t = kTemplates[ti];
    Request r;
    r.id = requests.size();
    r.tmpl = ti;
    r.verb = t.verb;
    r.sql = DrawSql(t, gen);
    r.options = session_options[static_cast<size_t>(ti)];
    if (t.set != nullptr) fx.client.Call(RequestVerb::kSet, t.set);
    r.t.due_ms = clock.NowMs();
    TimedCall(fx.client, clock, &r);
    if (t.reset != nullptr) fx.client.Call(RequestVerb::kSet, t.reset);
    r.sampler_on = sampler && QueueSampler::OnAt(r.t.sent_ms);
    requests.push_back(std::move(r));
  }
  if (sampler) sampler->Stop();
  rss.Stop();
  AddQueryMetrics(requests, std::vector<double>(weights.begin(), weights.end()),
                  setup_s, opts.seconds, rss.PeakMb(opts.seconds),
                  &result);

  if (opts.trace) {
    auto& m = result.metrics;
    m["server.threads_end"] = ProcStatus("Threads");
    m["server.vm_growth_mb"] = (ProcStatus("VmRSS") - rss_start) / 1024.0;
    m["executor.queue_depth_max"] = static_cast<double>(sampler->max_depth());
    const Scrape delta = Delta(ScrapeStats(fx.server->port()), before);
    std::vector<size_t> picked = SampleRequests(
        requests, [](const Request&) { return true; }, 2 * kNumTemplates,
        opts.seed ^ 0x5eed);
    std::vector<LayerSample> samples;
    std::vector<double> materialized, olap, speedup;
    for (size_t i : picked) {
      const Request& r = requests[i];
      LayerSample s = ReplayRead(r, *fx.server, *fx.db, clock);
      const Template& t = kTemplates[r.tmpl];
      if (Materialized(t)) materialized.push_back(s.query_ms);
      if (t.verb == RequestVerb::kOlap) olap.push_back(s.query_ms);
      if (!Materialized(t) && t.verb != RequestVerb::kOlap) {
        const double dop1 = TimeFusedScan(*fx.db, r.sql, 1, nullptr);
        const double dop4 = TimeFusedScan(*fx.db, r.sql, 4, nullptr);
        if (dop4 > 0) speedup.push_back(dop1 / dop4);
      }
      samples.push_back(s);
    }
    AddCommonLayerMetrics(requests, samples, delta,
                          static_cast<double>(requests.size()), &result);
    m["engine.materialized_ms_p50"] = Median(materialized);
    m["engine.olap_ms_p50"] = Median(olap);
    m["engine.dop4_speedup"] = Median(speedup);
    // SET trace on vs off, paired on the same statements over a fresh
    // session, alternating which runs first.
    pctagg::Result<PctClient> c = OpenSession(fx.server->port(), {kDop});
    std::vector<double> pct;
    for (size_t k = 0; c.ok() && k < picked.size() && pct.size() < 8; ++k) {
      const Request& r = requests[picked[k]];
      if (Materialized(kTemplates[r.tmpl]) || r.verb == RequestVerb::kOlap) {
        continue;
      }
      double ms[2] = {0, 0};
      for (int j = 0; j < 2; ++j) {
        const bool on = (j == 0) == (pct.size() % 2 == 0);
        c->Call(RequestVerb::kSet, on ? "trace on" : "trace off");
        Request probe = r;
        TimedCall(*c, clock, &probe);
        ms[on ? 1 : 0] = probe.t.done_ms - probe.t.sent_ms;
      }
      if (ms[0] > 0) pct.push_back(100.0 * (ms[1] - ms[0]) / ms[0]);
    }
    m["obs.trace_on_overhead_pct"] = Median(pct);
    AddLoadgenMetrics(requests, /*open_loop=*/false, &result);
  }

  std::vector<std::string> names;
  for (const Template& t : kTemplates) {
    names.push_back(pctagg::StrFormat("%s (%d%%)", t.name, t.weight));
  }
  AddTemplateNotes(requests, names, &result);
  std::vector<const Request*> reads;
  for (const Request& r : requests) reads.push_back(&r);
  CheckReads(*fx.db, reads, &result);
  result.notes.push_back(pctagg::StrFormat(
      "adhoc: sales %zu rows, 1 connection closed loop, %d templates, "
      "SET %s, summary cache on",
      rows, kNumTemplates, kDop));
  teardown();
  return result;
}

}  // namespace perfbench
