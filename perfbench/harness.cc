#include "harness.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <mutex>
#include <random>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "engine/parallel.h"
#include "engine/pipeline.h"
#include "obs/metrics.h"
#include "reference.h"

namespace perfbench {

using pctagg::PctClient;
using pctagg::PctDatabase;
using pctagg::Result;
using pctagg::Stopwatch;
using pctagg::WireResponse;
namespace obs = pctagg::obs;

const std::vector<MetricDef>& EndToEndCatalog() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s"},
      {"query_p50_ms", "ms"},
      {"query_p95_ms", "ms"},
      {"query_qps", "1/s"},
      {"append_p50_ms", "ms"},
      {"append_p95_ms", "ms"},
      {"error_rate", "share"},
      {"peak_rss_mb", "MB"},
      {"recovery_s", "s"},
      {"disk_bytes_per_row", "bytes"},
  };
  return kDefs;
}

const std::vector<MetricDef>& PerLayerCatalog() {
  static const std::vector<MetricDef> kDefs = {
      {"wire.overhead_ms_p50", "ms"},
      {"wire.response_kb_p50", "kB"},
      {"executor.overhead_ms_p50", "ms"},
      {"executor.queue_depth_max", "count"},
      {"executor.rejected", "count"},
      {"executor.timed_out", "count"},
      {"mqo.batched_share", "share"},
      {"mqo.batched_queries", "count"},
      {"mqo.share_base_queries", "count"},
      {"mqo.scan_rows_saved", "count"},
      {"mqo.window_wait_ms_p50", "ms"},
      {"server.threads_end", "count"},
      {"server.vm_growth_mb", "MB"},
      {"sql.prepare_ms_p50", "ms"},
      {"core.query_ms_p50", "ms"},
      {"core.self_ms_p50", "ms"},
      {"core.append_rows_ms_p50", "ms"},
      {"cache.hit_ratio", "share"},
      {"cache.hits", "count"},
      {"cache.lookups", "count"},
      {"cache.shared_fills", "count"},
      {"cache.evictions", "count"},
      {"delta.merges", "count"},
      {"delta.recomputes", "count"},
      {"engine.scan_ms_p50", "ms"},
      {"engine.scan_mrows_per_s", "Mrows/s"},
      {"engine.dop4_speedup", "x"},
      {"engine.materialized_ms_p50", "ms"},
      {"engine.olap_ms_p50", "ms"},
      {"storage.wal_bytes_per_row", "bytes"},
      {"storage.wal_fsyncs", "count"},
      {"storage.checkpoint_ms", "ms"},
      {"storage.recovery_wal_records", "count"},
      {"dist.shard_wall_ms_p50", "ms"},
      {"dist.shard_skew", "x"},
      {"dist.gather_merge_ms_p50", "ms"},
      {"dist.bytes_per_query", "bytes"},
      {"dist.retries", "count"},
      {"dist.coordinator_self_ms_p50", "ms"},
      {"obs.trace_on_overhead_pct", "%"},
      {"trace.unattributed_pct", "%"},
      {"trace.overhead_pct", "%"},
      {"loadgen.lag_ms_p95", "ms"},
      {"error_rate", "share"},
      {"append_p50_ms", "ms"},
      {"append_p95_ms", "ms"},
      {"recovery_s", "s"},
      {"disk_bytes_per_row", "bytes"},
  };
  return kDefs;
}

void PhaseClock::SleepUntil(double ms) const {
  std::this_thread::sleep_until(
      start_ + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double, std::milli>(ms)));
}

void TimedCall(PctClient& client, const PhaseClock& clock, Request* r) {
  r->t.sent_ms = clock.NowMs();
  Result<WireResponse> resp = client.Call(r->verb, r->sql);
  r->t.done_ms = clock.NowMs();
  if (!resp.ok()) {
    r->ok = false;
    r->error = "transport: " + resp.status().ToString();
    return;
  }
  if (!resp->status.ok()) {
    r->ok = false;
    r->error = resp->status.ToString();
    return;
  }
  r->ok = true;
  r->server_micros = resp->micros;
  r->body_bytes = resp->body.size();
  if (!r->append) r->body = std::move(resp->body);
}

Result<PctClient> OpenSession(int port, const std::vector<std::string>& sets) {
  PCTAGG_ASSIGN_OR_RETURN(PctClient client,
                          PctClient::Connect("127.0.0.1", port));
  for (const std::string& set : sets) {
    PCTAGG_ASSIGN_OR_RETURN(WireResponse r,
                            client.Call(pctagg::RequestVerb::kSet, set));
    if (!r.status.ok()) return r.status;
  }
  return client;
}

double ProcStatus(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtod(line.c_str() + field.size() + 1, nullptr);
    }
  }
  return 0;
}

double TimedSetup(int times, const std::function<void()>& setup) {
  std::vector<double> seconds;
  // The extra set-ups run in forked children that time themselves, report
  // through a pipe and exit without tearing down. Run and discarded in this
  // process, they would leave freed heap the allocator keeps, and that would
  // count in peak_rss_mb: 250-650 MB between runs of `sharded`.
  for (int i = 0; i + 1 < times; ++i) {
    int fds[2];
    if (pipe(fds) != 0) break;
    const pid_t pid = fork();
    if (pid < 0) {
      close(fds[0]);
      close(fds[1]);
      break;
    }
    if (pid == 0) {
      close(fds[0]);
      Stopwatch timer;
      setup();
      const double s = timer.ElapsedSeconds();
      const ssize_t written = write(fds[1], &s, sizeof(s));
      _exit(written == sizeof(s) ? 0 : 1);
    }
    close(fds[1]);
    double s = -1;
    const ssize_t got = read(fds[0], &s, sizeof(s));
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (got == sizeof(s) && s >= 0) seconds.push_back(s);
  }
  Stopwatch timer;
  setup();
  seconds.push_back(timer.ElapsedSeconds());
  return Median(seconds);
}

Scrape ScrapeStats(int port) {
  Result<PctClient> client = PctClient::Connect("127.0.0.1", port);
  if (!client.ok()) return {};
  Result<WireResponse> r = client->Stats();
  if (!r.ok() || !r->status.ok()) return {};
  return ParsePrometheus(r->body);
}

void CheckReads(const PctDatabase& reference,
                const std::vector<const Request*>& reads, RunResult* result) {
  std::map<std::string, std::vector<const Request*>> by_sql;
  for (const Request* r : reads) {
    if (r->ok) by_sql[r->sql].push_back(r);
  }
  std::vector<const std::pair<const std::string,
                              std::vector<const Request*>>*> groups;
  for (const auto& g : by_sql) groups.push_back(&g);
  std::atomic<size_t> next{0};
  std::mutex mu;
  auto work = [&] {
    for (size_t i = next++; i < groups.size(); i = next++) {
      const std::string& sql = groups[i]->first;
      std::string why;
      Result<pctagg::AnalyzedQuery> query = reference.PrepareQuery(sql);
      Result<pctagg::Table> want = reference.Query(sql, ReferenceOptions());
      if (!query.ok() || !want.ok()) {
        why = "reference failed: " +
              (query.ok() ? want.status() : query.status()).ToString();
      } else {
        for (const Request* r : groups[i]->second) {
          if (!CheckAnswer(r->body, *want, *query, &why)) break;
        }
      }
      if (!why.empty()) {
        std::lock_guard<std::mutex> lock(mu);
        result->Fail("wrong answer to [" + sql + "]: " + why);
      }
    }
  };
  std::vector<std::thread> threads;
  const size_t n = std::min<size_t>(4, groups.size());
  for (size_t t = 0; t < n; ++t) threads.emplace_back(work);
  for (std::thread& t : threads) t.join();
}

void AddQueryMetrics(const std::vector<Request>& requests,
                     const std::vector<double>& template_share, double setup_s,
                     double seconds, double peak_rss_mb, RunResult* result) {
  std::vector<double> latency;
  std::vector<std::vector<double>> window(kWindows);
  std::vector<std::vector<int>> window_tmpl(kWindows);
  double first_sent = 1e300, last_done = 0;
  const double window_ms = seconds * 1000.0 / kWindows;
  for (const Request& r : requests) {
    ++result->attempted;
    if (!r.ok) {
      if (result->failed++ == 0) {
        result->Fail("request failed: " + r.error + " [" +
                     r.sql.substr(0, 120) + "]");
      }
      continue;
    }
    if (r.append) continue;
    latency.push_back(r.t.LatencyMs());
    first_sent = std::min(first_sent, r.t.sent_ms);
    last_done = std::max(last_done, r.t.done_ms);
    const size_t w = static_cast<size_t>(r.t.due_ms / window_ms);
    if (w >= kWindows) continue;
    window[w].push_back(r.t.LatencyMs());
    window_tmpl[w].push_back(r.tmpl);
  }
  std::vector<double> p50, p95;
  size_t smallest = latency.size();
  for (size_t w = 0; w < kWindows; ++w) {
    p50.push_back(
        MixPercentile(window[w], window_tmpl[w], template_share, 0.5));
    p95.push_back(
        MixPercentile(window[w], window_tmpl[w], template_share, 0.95));
    smallest = std::min(smallest, window[w].size());
  }
  auto& m = result->metrics;
  m["setup_s"] = setup_s;
  m["query_p50_ms"] = Median(p50);
  m["query_p95_ms"] = Median(p95);
  // Completions over the span from the first send to the last answer, over
  // the whole phase: a closed loop's window holds a part of a mix block, so
  // per-window rates swing with the window's share of slow statements, and
  // a whole-number count over a fixed length would take few values.
  const double span_ms = last_done - first_sent;
  m["query_qps"] =
      span_ms > 0 ? static_cast<double>(latency.size()) * 1000.0 / span_ms : 0;
  m["peak_rss_mb"] = peak_rss_mb;
  m["error_rate"] = result->attempted > 0
                        ? static_cast<double>(result->failed) /
                              static_cast<double>(result->attempted)
                        : 0.0;
  std::string per_window;
  for (size_t w = 0; w < kWindows; ++w) {
    per_window += pctagg::StrFormat(" %.1f/%.1f", p50[w], p95[w]);
  }
  result->notes.push_back("window p50/p95 ms:" + per_window);
  result->notes.push_back(pctagg::StrFormat(
      "query samples: %zu in %zu windows (smallest %zu); whole run p50 "
      "%.2f ms, p95 %.2f ms (%zu beyond); VmHWM %.1f MB; requests "
      "attempted %llu, failed %llu",
      latency.size(), kWindows, smallest, Percentile(latency, 0.5),
      Percentile(latency, 0.95), SamplesBeyond(latency, 0.95),
      ProcStatus("VmHWM") / 1024.0,
      (unsigned long long)result->attempted,
      (unsigned long long)result->failed));
}

void AddTemplateNotes(const std::vector<Request>& requests,
                      const std::vector<std::string>& names,
                      RunResult* result) {
  for (size_t t = 0; t < names.size(); ++t) {
    std::vector<double> ms;
    for (const Request& r : requests) {
      if (r.tmpl == static_cast<int>(t) && r.ok) ms.push_back(r.t.LatencyMs());
    }
    result->notes.push_back(pctagg::StrFormat(
        "template %-24s sent %5zu  p50 %9.2f ms  p95 %9.2f ms",
        names[t].c_str(), ms.size(), Median(ms), Percentile(ms, 0.95)));
  }
}

std::vector<size_t> SampleRequests(
    const std::vector<Request>& requests,
    const std::function<bool(const Request&)>& keep, size_t n,
    uint64_t seed) {
  std::map<int, std::vector<size_t>> by_template;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].ok && keep(requests[i])) {
      by_template[requests[i].tmpl].push_back(i);
    }
  }
  std::mt19937_64 gen(seed);
  for (auto& [tmpl, idx] : by_template) std::shuffle(idx.begin(), idx.end(), gen);
  std::vector<size_t> out;
  for (size_t round = 0; out.size() < n; ++round) {
    bool any = false;
    for (auto& [tmpl, idx] : by_template) {
      if (round < idx.size() && out.size() < n) {
        out.push_back(idx[round]);
        any = true;
      }
    }
    if (!any) break;
  }
  return out;
}

double TimeFusedScan(const PctDatabase& db, const std::string& sql, size_t dop,
                     double* rows) {
  Result<pctagg::AnalyzedQuery> q = db.PrepareQuery(sql);
  if (!q.ok()) return 0;
  Result<const pctagg::Table*> table = db.catalog().GetTable(q->table_name);
  if (!table.ok()) return 0;
  // The statement's finest level: its grouping plus any horizontal BY list.
  std::vector<std::string> group_by = q->group_by;
  std::vector<pctagg::AggSpec> aggs;
  for (const pctagg::AnalyzedTerm& term : q->terms) {
    for (const std::string& c : term.by_columns) {
      if (std::find(group_by.begin(), group_by.end(), c) == group_by.end()) {
        group_by.push_back(c);
      }
    }
    pctagg::AggFunc func = pctagg::AggFunc::kSum;  // Vpct, Hpct, sum, avg
    switch (term.func) {
      case pctagg::TermFunc::kScalar:
      case pctagg::TermFunc::kGrouping:
      case pctagg::TermFunc::kCountStar:
        continue;
      case pctagg::TermFunc::kCount:
        func = pctagg::AggFunc::kCount;
        break;
      case pctagg::TermFunc::kMin:
        func = pctagg::AggFunc::kMin;
        break;
      case pctagg::TermFunc::kMax:
        func = pctagg::AggFunc::kMax;
        break;
      default:
        break;
    }
    aggs.push_back({func, term.argument, pctagg::StrFormat("m%zu", aggs.size())});
  }
  aggs.push_back({pctagg::AggFunc::kCountStar, nullptr, "n"});
  pctagg::ScopedParallelism parallelism(dop);
  Stopwatch timer;
  Result<pctagg::Table> r =
      pctagg::FusedAggregate(**table, q->where, group_by, aggs, 0);
  const double ms = timer.ElapsedMillis();
  if (rows != nullptr) *rows = static_cast<double>((*table)->num_rows());
  return r.ok() ? ms : 0;
}

LayerSample ReplayRead(const Request& r, pctagg::PctServer& server,
                       const PctDatabase& db, const PhaseClock& clock) {
  LayerSample s;
  std::vector<Span> spans;
  auto add = [&](const char* layer, int parent, double start, double end) {
    spans.push_back({r.id, layer, parent, start, end});
    return static_cast<int>(spans.size() - 1);
  };
  // Live spans: the client's Call, and the server's own count centred in it
  // (the server does not say when inside the call its clock started).
  s.client_ms = r.t.done_ms - r.t.sent_ms;
  const double server_ms = static_cast<double>(r.server_micros) / 1000.0;
  const int client = add("client", -1, r.t.sent_ms, r.t.done_ms);
  const double mid = r.t.sent_ms + (s.client_ms - server_ms) / 2;
  const int srv = add("server", client, mid, mid + server_ms);
  // Replays, serially, one layer lower at a time.
  double t0 = clock.NowMs();
  server.executor().ExecuteStatement(r.sql, r.options, 0, nullptr);
  const int exec = add("executor", srv, t0, clock.NowMs());
  obs::MetricsRegistry& metrics = obs::GlobalMetrics();
  const uint64_t hits = metrics.CounterValue("pctagg_summary_cache_hits_total");
  t0 = clock.NowMs();
  db.Query(r.sql, r.options);
  const int query = add("query", exec, t0, clock.NowMs());
  const bool scanned =
      metrics.CounterValue("pctagg_summary_cache_hits_total") == hits;
  t0 = clock.NowMs();
  db.PrepareQuery(r.sql);
  add("prepare", query, t0, clock.NowMs());
  // The fused scan is a layer below the query only when the query scanned;
  // a summary-cache hit answers without one. It is timed either way.
  t0 = clock.NowMs();
  s.scan_ms = TimeFusedScan(db, r.sql, r.options.degree_of_parallelism,
                            &s.scan_rows);
  if (scanned) add("scan", query, t0, t0 + s.scan_ms);

  const std::vector<double> self = SelfTimes(spans, &s.clamped_ms);
  s.query_ms = spans[query].DurationMs();
  s.prepare_ms = spans[query + 1].DurationMs();
  s.wire_self_ms = self[client];
  s.executor_self_ms = self[srv] + self[exec];
  s.core_self_ms = self[query];
  return s;
}

void AddCommonLayerMetrics(const std::vector<Request>& requests,
                           const std::vector<LayerSample>& samples,
                           const Scrape& delta, double filtered_queries,
                           RunResult* result) {
  auto& m = result->metrics;
  auto med = [&](double LayerSample::*field) {
    std::vector<double> v;
    for (const LayerSample& s : samples) v.push_back(s.*field);
    return Median(v);
  };
  std::vector<double> kb;
  for (const Request& r : requests) {
    if (r.ok && !r.append) kb.push_back(static_cast<double>(r.body_bytes) / 1024);
  }
  m["wire.response_kb_p50"] = Median(kb);
  if (!samples.empty()) {
    m["wire.overhead_ms_p50"] = med(&LayerSample::wire_self_ms);
    m["executor.overhead_ms_p50"] = med(&LayerSample::executor_self_ms);
    m["sql.prepare_ms_p50"] = med(&LayerSample::prepare_ms);
    m["core.query_ms_p50"] = med(&LayerSample::query_ms);
    m["core.self_ms_p50"] = med(&LayerSample::core_self_ms);
    m["engine.scan_ms_p50"] = med(&LayerSample::scan_ms);
    std::vector<double> rate;
    double clamped = 0, client = 0;
    for (const LayerSample& s : samples) {
      if (s.scan_ms > 0) rate.push_back(s.scan_rows / s.scan_ms / 1000.0);
      clamped += s.clamped_ms;
      client += s.client_ms;
    }
    m["engine.scan_mrows_per_s"] = Median(rate);
    m["trace.unattributed_pct"] = client > 0 ? 100.0 * clamped / client : 0;
  }
  m["executor.rejected"] =
      Get(delta, "pctagg_server_statements_rejected_total");
  m["executor.timed_out"] =
      Get(delta, "pctagg_server_statements_timed_out_total");
  const double batched = Get(delta, "pctagg_mqo_queries_batched_total");
  m["mqo.batched_queries"] = batched;
  m["mqo.share_base_queries"] = filtered_queries;
  m["mqo.batched_share"] = Ratio{batched, filtered_queries}.value();
  m["mqo.scan_rows_saved"] = Get(delta, "pctagg_mqo_scan_rows_saved_total");
  m["mqo.window_wait_ms_p50"] =
      HistogramQuantile(delta, "pctagg_mqo_batch_window_ms", 0.5);
  const double hits = Get(delta, "pctagg_summary_cache_hits_total");
  const double lookups =
      hits + Get(delta, "pctagg_summary_cache_misses_total");
  m["cache.hits"] = hits;
  m["cache.lookups"] = lookups;
  m["cache.hit_ratio"] = Ratio{hits, lookups}.value();
  m["cache.shared_fills"] =
      Get(delta, "pctagg_summary_cache_shared_fills_total");
  m["cache.evictions"] = Get(delta, "pctagg_summary_cache_evictions_total");
  m["delta.merges"] = Get(delta, "pctagg_summary_delta_merges_total");
  m["delta.recomputes"] = Get(delta, "pctagg_summary_delta_recomputes_total");
}

void AddLoadgenMetrics(const std::vector<Request>& requests, bool open_loop,
                       RunResult* result) {
  std::vector<double> lag, on, off;
  for (const Request& r : requests) {
    if (open_loop) lag.push_back(r.t.LagMs());
    if (r.ok && !r.append) (r.sampler_on ? on : off).push_back(r.t.LatencyMs());
  }
  result->metrics["loadgen.lag_ms_p95"] = Percentile(lag, 0.95);
  const double base = Median(off);
  result->metrics["trace.overhead_pct"] =
      base > 0 && !on.empty() ? 100.0 * (Median(on) - base) / base : 0.0;
}

RssSampler::RssSampler(const PhaseClock* clock) : clock_(clock) {
  samples_.reserve(8192);
  thread_ = std::thread([this] {
    const double page_mb = static_cast<double>(sysconf(_SC_PAGESIZE)) / 1048576.0;
    while (!stop_.load()) {
      std::ifstream statm("/proc/self/statm");
      double size = 0, resident = 0;
      if (statm >> size >> resident) {
        samples_.emplace_back(clock_->NowMs(), resident * page_mb);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
}

void RssSampler::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

RssSampler::~RssSampler() { Stop(); }

double RssSampler::PeakMb(double seconds) const {
  std::vector<double> peak(kWindows, 0.0);
  const double window_ms = seconds * 1000.0 / kWindows;
  for (const auto& [ms, mb] : samples_) {
    const size_t w = std::min(static_cast<size_t>(ms / window_ms), kWindows - 1);
    peak[w] = std::max(peak[w], mb);
  }
  return Median(peak);
}

QueueSampler::QueueSampler(pctagg::PctServer* server, const PhaseClock* clock)
    : server_(server), clock_(clock) {
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      if (!OnAt(clock_->NowMs())) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        continue;
      }
      const size_t depth = server_->executor().pool_queue_depth();
      if (depth > max_depth_.load()) max_depth_.store(depth);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
}

void QueueSampler::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

QueueSampler::~QueueSampler() { Stop(); }

}  // namespace perfbench
