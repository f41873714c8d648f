// sharded: `transactionLine` hash-sharded on cityId across two in-process
// worker servers (worker dop 1) behind an in-process Coordinator; one
// client connection in a closed loop of Vpct/Hpct/CUBE/plain aggregates on
// the INT64 measure itemQty.

#include <algorithm>
#include <memory>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/lattice_plan.h"
#include "dist/coordinator.h"
#include "engine/csv.h"
#include "engine/merge.h"
#include "reference.h"
#include "storage/serde.h"
#include "workload/generators.h"
#include "workloads.h"

namespace perfbench {
namespace {

using pctagg::PctClient;
using pctagg::PctDatabase;
using pctagg::PctServer;
using pctagg::Table;

constexpr int kWorkers = 2;

// Every statement orders its rows, so the distributed answer can be compared
// byte for byte with the single-node CSV.
constexpr const char* kStatements[] = {
    "SELECT stateId, Vpct(itemQty BY stateId) AS pct FROM transactionLine "
    "GROUP BY stateId ORDER BY stateId",
    "SELECT dayOfWeekNo, stateId, Vpct(itemQty BY stateId) AS pct, "
    "sum(itemQty) AS qty FROM transactionLine GROUP BY dayOfWeekNo, stateId "
    "ORDER BY dayOfWeekNo, stateId",
    "SELECT regionId, Hpct(itemQty BY dayOfWeekNo) FROM transactionLine "
    "GROUP BY regionId ORDER BY regionId",
    "SELECT deptId, yearNo, sum(itemQty) AS qty, count(*) AS n "
    "FROM transactionLine GROUP BY CUBE(deptId, yearNo) "
    "ORDER BY deptId, yearNo",
    "SELECT monthNo, sum(itemQty) AS qty, count(*) AS n, max(itemQty) AS mx "
    "FROM transactionLine GROUP BY monthNo ORDER BY monthNo",
    "SELECT subdeptId, Vpct(itemQty BY subdeptId) AS pct FROM transactionLine "
    "GROUP BY subdeptId ORDER BY subdeptId",
    "SELECT cityId, dayOfWeekNo, Vpct(itemQty BY dayOfWeekNo) AS pct "
    "FROM transactionLine GROUP BY cityId, dayOfWeekNo "
    "ORDER BY cityId, dayOfWeekNo",
    "SELECT storeId, Vpct(itemQty) AS pct, min(itemQty) AS mn "
    "FROM transactionLine GROUP BY storeId ORDER BY storeId",
};
constexpr int kNumStatements = sizeof(kStatements) / sizeof(kStatements[0]);

struct Fixture {
  std::vector<std::unique_ptr<PctDatabase>> worker_dbs;
  std::vector<std::unique_ptr<PctServer>> workers;
  std::unique_ptr<PctDatabase> db;
  std::unique_ptr<pctagg::dist::Coordinator> coordinator;
  std::unique_ptr<PctServer> server;
  PctClient client;
};

// Replays one distributed read: the coordinator's MaybeExecute, then its
// pieces -- each shard's partial scan, serde, the gather merge and the
// assembly with the statement tail -- one at a time.
struct DistSample {
  double client_ms = 0, server_ms = 0;
  double shard_max_ms = 0, shard_skew = 0, serde_ms = 0, merge_ms = 0;
  double assemble_ms = 0;
  double prepare_ms = 0, scan_ms = 0, scan_rows = 0;
  double wire_self_ms = 0, executor_self_ms = 0, coordinator_self_ms = 0;
  double clamped_ms = 0;
};

DistSample ReplayDistributed(const Request& r, Fixture& fx,
                             const PhaseClock& clock) {
  DistSample d;
  std::vector<Span> spans;
  auto add = [&](const char* layer, int parent, double start, double end) {
    spans.push_back({r.id, layer, parent, start, end});
    return static_cast<int>(spans.size() - 1);
  };
  d.client_ms = r.t.done_ms - r.t.sent_ms;
  d.server_ms = static_cast<double>(r.server_micros) / 1000.0;
  const int client = add("client", -1, r.t.sent_ms, r.t.done_ms);
  const double mid = r.t.sent_ms + (d.client_ms - d.server_ms) / 2;
  const int srv = add("server", client, mid, mid + d.server_ms);
  double t0 = clock.NowMs();
  fx.coordinator->MaybeExecute(r.sql, r.options, nullptr);
  const int coord = add("coordinator", srv, t0, clock.NowMs());

  pctagg::Stopwatch prepare;
  auto query = fx.db->PrepareQuery(r.sql);
  d.prepare_ms = prepare.ElapsedMillis();
  if (!query.ok()) return d;
  // The engine's share of one shard's work: the fused scan of the
  // statement over worker 0's shard.
  d.scan_ms = TimeFusedScan(*fx.worker_dbs[0], r.sql, 1, &d.scan_rows);
  auto plan = pctagg::BuildDistributedPartialPlan(*query);
  if (!plan.ok()) return d;
  pctagg::QueryOptions shard_opts;
  shard_opts.degree_of_parallelism = 1;
  std::vector<Table> partials;
  double sum_ms = 0;
  for (auto& wdb : fx.worker_dbs) {
    pctagg::Stopwatch timer;
    auto p = wdb->Query(plan->partial_sql, shard_opts);
    const double ms = timer.ElapsedMillis();
    sum_ms += ms;
    d.shard_max_ms = std::max(d.shard_max_ms, ms);
    if (!p.ok()) return d;
    // Serde both ways, as the wire path pays it; shards ship in parallel,
    // so the slowest one counts.
    pctagg::Stopwatch serde;
    std::string bytes;
    pctagg::storage::EncodeTable(*p, &bytes);
    pctagg::storage::ByteReader reader(bytes);
    auto decoded = pctagg::storage::DecodeTable(&reader);
    d.serde_ms = std::max(d.serde_ms, serde.ElapsedMillis());
    if (!decoded.ok()) return d;
    partials.push_back(std::move(*decoded));
  }
  d.shard_skew = sum_ms > 0 ? d.shard_max_ms / (sum_ms / kWorkers) : 0;
  t0 = clock.NowMs();
  add("shard", coord, t0, t0 + d.shard_max_ms);
  add("serde", coord, t0, t0 + d.serde_ms);

  pctagg::Stopwatch merge;
  Table merged = std::move(partials[0]);
  for (size_t i = 1; i < partials.size(); ++i) {
    auto m = pctagg::MergeSummaries(merged, partials[i],
                                    plan->finest_cols.size(), plan->combine);
    if (!m.ok()) return d;
    merged = std::move(*m);
  }
  d.merge_ms = merge.ElapsedMillis();
  t0 = clock.NowMs();
  add("merge", coord, t0, t0 + d.merge_ms);

  pctagg::Stopwatch assemble;
  auto a = pctagg::AssembleFromPartials(
      *query, std::make_shared<const Table>(std::move(merged)), nullptr, 1);
  if (a.ok()) pctagg::ApplyQueryTail(std::move(*a), *query);
  d.assemble_ms = assemble.ElapsedMillis();
  t0 = clock.NowMs();
  add("assemble", coord, t0, t0 + d.assemble_ms);

  const std::vector<double> self = SelfTimes(spans, &d.clamped_ms);
  d.wire_self_ms = self[client];
  d.executor_self_ms = self[srv];
  d.coordinator_self_ms = self[coord];
  return d;
}

}  // namespace

RunResult RunSharded(const Options& opts) {
  RunResult result;
  const size_t rows = opts.smoke ? 20000 : 1000000;
  const uint64_t data_seed = DataSeed(opts.seed);
  Fixture fx;
  std::string setup_error;
  auto setup = [&] {
    std::vector<pctagg::dist::WorkerEndpoint> endpoints;
    pctagg::Status st;
    for (int i = 0; i < kWorkers && st.ok(); ++i) {
      fx.worker_dbs.push_back(std::make_unique<PctDatabase>());
      fx.workers.push_back(std::make_unique<PctServer>(
          fx.worker_dbs.back().get(), pctagg::ServerConfig()));
      st = fx.workers.back()->Start();
      endpoints.push_back({"127.0.0.1", fx.workers.back()->port()});
    }
    fx.db = std::make_unique<PctDatabase>();
    if (st.ok()) {
      st = fx.db->CreateTable("transactionLine",
                              pctagg::GenerateTransactionLine(rows, data_seed));
    }
    pctagg::dist::CoordinatorConfig config;
    config.worker_dop = 1;
    fx.coordinator = std::make_unique<pctagg::dist::Coordinator>(
        fx.db.get(), endpoints, config);
    if (st.ok()) st = fx.coordinator->ShardTable("transactionLine", "cityId");
    pctagg::ServerConfig server_config;
    server_config.router = fx.coordinator.get();
    fx.server = std::make_unique<PctServer>(fx.db.get(), server_config);
    if (st.ok()) st = fx.server->Start();
    pctagg::Result<PctClient> c =
        st.ok() ? OpenSession(fx.server->port(), {})
                : pctagg::Result<PctClient>(st);
    if (!c.ok()) {
      setup_error = c.status().ToString();
      return;
    }
    fx.client = std::move(*c);
    fx.client.Query(kStatements[0]);
  };
  auto teardown = [&] {
    fx.client.Close();
    fx.server.reset();
    fx.coordinator.reset();
    fx.workers.clear();
    fx.worker_dbs.clear();
    fx.db.reset();
  };
  const double setup_s = TimedSetup(kSetups, setup);
  if (!setup_error.empty()) {
    result.Fail("setup: " + setup_error);
    teardown();
    return result;
  }

  const pctagg::QueryOptions defaults = pctagg::QueryOptions();
  BlockMix mix(std::vector<int>(kNumStatements, 1), opts.seed);
  Scrape before;
  if (opts.trace) before = ScrapeStats(fx.server->port());
  const double rss_start = ProcStatus("VmRSS");
  std::vector<Request> requests;
  requests.reserve(8192);
  PhaseClock clock;
  RssSampler rss(&clock);
  std::unique_ptr<QueueSampler> sampler;
  if (opts.trace) sampler = std::make_unique<QueueSampler>(fx.server.get(), &clock);
  const double end_ms = opts.seconds * 1000.0;
  while (clock.NowMs() < end_ms) {
    Request r;
    r.id = requests.size();
    r.tmpl = mix.Next();
    r.sql = kStatements[r.tmpl];
    r.options = defaults;
    r.t.due_ms = clock.NowMs();
    TimedCall(fx.client, clock, &r);
    r.sampler_on = sampler && QueueSampler::OnAt(r.t.sent_ms);
    requests.push_back(std::move(r));
  }
  if (sampler) sampler->Stop();
  rss.Stop();
  AddQueryMetrics(requests, std::vector<double>(kNumStatements, 1.0), setup_s,
                  opts.seconds, rss.PeakMb(opts.seconds), &result);

  if (opts.trace) {
    auto& m = result.metrics;
    m["server.threads_end"] = ProcStatus("Threads");
    m["server.vm_growth_mb"] = (ProcStatus("VmRSS") - rss_start) / 1024.0;
    m["executor.queue_depth_max"] = static_cast<double>(sampler->max_depth());
    // Workers and the coordinator share one process-wide registry, so only
    // the coordinator-only pctagg_dist_* families are read from STATS.
    const Scrape delta = Delta(ScrapeStats(fx.server->port()), before);
    AddCommonLayerMetrics(requests, {}, Scrape(), 0, &result);
    std::vector<DistSample> samples;
    for (size_t i : SampleRequests(
             requests, [](const Request&) { return true; }, 2 * kNumStatements,
             opts.seed ^ 0x5eed)) {
      samples.push_back(ReplayDistributed(requests[i], fx, clock));
    }
    auto med = [&](double DistSample::*field) {
      std::vector<double> v;
      for (const DistSample& s : samples) v.push_back(s.*field);
      return Median(v);
    };
    m["wire.overhead_ms_p50"] = med(&DistSample::wire_self_ms);
    m["executor.overhead_ms_p50"] = med(&DistSample::executor_self_ms);
    m["dist.coordinator_self_ms_p50"] = med(&DistSample::coordinator_self_ms);
    m["dist.shard_wall_ms_p50"] = med(&DistSample::shard_max_ms);
    m["dist.shard_skew"] = med(&DistSample::shard_skew);
    m["dist.gather_merge_ms_p50"] = med(&DistSample::merge_ms);
    m["core.query_ms_p50"] = med(&DistSample::assemble_ms);
    m["core.self_ms_p50"] = med(&DistSample::assemble_ms);
    m["sql.prepare_ms_p50"] = med(&DistSample::prepare_ms);
    m["engine.scan_ms_p50"] = med(&DistSample::scan_ms);
    std::vector<double> rate;
    for (const DistSample& s : samples) {
      if (s.scan_ms > 0) rate.push_back(s.scan_rows / s.scan_ms / 1000.0);
    }
    m["engine.scan_mrows_per_s"] = Median(rate);
    double clamped = 0, client = 0;
    for (const DistSample& s : samples) {
      clamped += s.clamped_ms;
      client += s.client_ms;
    }
    m["trace.unattributed_pct"] = client > 0 ? 100.0 * clamped / client : 0;
    const double queries = Get(delta, "pctagg_dist_queries_total");
    m["dist.bytes_per_query"] =
        Ratio{Get(delta, "pctagg_dist_bytes_moved_total"), queries}.value();
    m["dist.retries"] = Get(delta, "pctagg_dist_retries_total");
    AddLoadgenMetrics(requests, /*open_loop=*/false, &result);
  }
  std::vector<std::string> names(kStatements, kStatements + kNumStatements);
  for (std::string& n : names) n = n.substr(7, 40);
  AddTemplateNotes(requests, names, &result);
  teardown();

  // Byte-identical to the single-node CSV of the reference path.
  PctDatabase single;
  single.CreateTable("transactionLine",
                     pctagg::GenerateTransactionLine(rows, data_seed));
  for (int s = 0; s < kNumStatements; ++s) {
    auto want = single.Query(kStatements[s], ReferenceOptions());
    if (!want.ok()) {
      result.Fail("reference failed: " + want.status().ToString());
      break;
    }
    const std::string csv = pctagg::FormatCsv(*want);
    for (const Request& r : requests) {
      if (r.ok && r.tmpl == s && r.body != csv) {
        result.Fail(pctagg::StrFormat(
            "sharded answer differs from the single-node CSV for [%s]",
            kStatements[s]));
        break;
      }
    }
  }
  result.notes.push_back(pctagg::StrFormat(
      "sharded: transactionLine %zu rows on cityId across %d workers at "
      "worker dop 1, 1 connection closed loop, %d statements",
      rows, kWorkers, kNumStatements));
  return result;
}

}  // namespace perfbench
