#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Pieces every workload shares: options, the result record, one wire request
// with its timings, the timed-phase clock, set-up timing, result checking
// against the reference path and the per-layer replay of sampled requests.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/database.h"
#include "loadgen.h"
#include "server/client.h"
#include "server/server.h"
#include "stats_scrape.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Tiny tables and short phases: every workload and its result checks in
  // seconds. Figures from a smoke run are not comparable to full runs.
  bool smoke = false;
};

// What one run found. Metrics are keyed by name; the catalogs below give
// their units and the order they are reported in.
struct RunResult {
  bool correct = true;
  std::string first_error;   // first failed check or failed request
  uint64_t attempted = 0;    // requests sent in the timed phase
  uint64_t failed = 0;       // failed, refused or timed-out requests
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;  // stated conditions (rates, limits)

  void Fail(const std::string& why) {
    if (correct) first_error = why;
    correct = false;
  }
};

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every end-to-end metric a run measures (the untraced report), and every
// per-layer metric a traced run reports -- 0 where a layer has no work on
// the workload.
const std::vector<MetricDef>& EndToEndCatalog();
const std::vector<MetricDef>& PerLayerCatalog();

// Milliseconds since the start of the timed phase.
class PhaseClock {
 public:
  PhaseClock() : start_(std::chrono::steady_clock::now()) {}
  double NowMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  // Sleeps until `ms` on this clock (returns at once when already past).
  void SleepUntil(double ms) const;

 private:
  std::chrono::steady_clock::time_point start_;
};

// One request of the timed phase and what came back.
struct Request {
  uint64_t id = 0;
  int tmpl = -1;            // workload-specific template index
  int conn = 0;             // client connection that sent it
  pctagg::RequestVerb verb = pctagg::RequestVerb::kQuery;
  std::string sql;
  pctagg::QueryOptions options;  // the session's options, for replays
  bool append = false;
  bool filtered = false;
  OpenLoopSend t;           // due/sent/done, ms on the phase clock
  bool ok = false;
  std::string error;
  uint64_t server_micros = 0;
  size_t body_bytes = 0;
  std::string body;
  bool sampler_on = false;  // traced run: queue sampler active when sent
};

// Sends `r->verb r->sql` and fills the send and answer times and the answer.
// The caller sets r->t.due_ms: the schedule's time in an open loop, the
// moment just before the call in a closed one.
void TimedCall(pctagg::PctClient& client, const PhaseClock& clock,
               Request* r);

// Opens a client connection to 127.0.0.1:port and applies `sets` ("dop
// auto", ...). Failure is a setup error: the caller aborts the run.
pctagg::Result<pctagg::PctClient> OpenSession(
    int port, const std::vector<std::string>& sets);

// /proc/self/status field in kB (VmHWM, VmRSS, ...) or count (Threads).
double ProcStatus(const std::string& field);

// Runs `setup` `times` times and returns the median time in seconds; only
// the last run stays in this process (the others run in forked children).
// The process must not have started any thread yet: a forked child keeps
// only the forking one.
double TimedSetup(int times, const std::function<void()>& setup);

// Set-ups per run behind setup_s. With three, the median of ten `adhoc`
// runs' setup_s moved by 12% between two sets of runs.
inline constexpr int kSetups = 5;

// One STATS scrape over a fresh connection.
Scrape ScrapeStats(int port);

// Checks every successful read in `reads` against the reference path run on
// `reference` (ReferenceOptions), computing each distinct statement once on
// up to four threads. Failed checks mark `result`.
void CheckReads(const pctagg::PctDatabase& reference,
                const std::vector<const Request*>& reads, RunResult* result);

// The timed phase is cut into this many equal windows by due time; each
// latency percentile is the median of its per-window values, so a burst of
// host noise in one or two windows moves it little.
inline constexpr size_t kWindows = 10;

// End-to-end metrics common to every workload, from the requests of the
// timed phase of `seconds`: query_p50_ms and query_p95_ms as window
// medians (kWindows), query_qps over the whole phase, plus setup_s,
// peak_rss_mb and error_rate.
// The percentiles are those of the workload's stated mix: a read of
// template t counts by template_share[t] (MixPercentile), so a window that
// happened to draw more fast statements than the mix holds does not read
// as faster.
void AddQueryMetrics(const std::vector<Request>& requests,
                     const std::vector<double>& template_share, double setup_s,
                     double seconds, double peak_rss_mb, RunResult* result);

// One note per template: requests sent and their p50 latency.
void AddTemplateNotes(const std::vector<Request>& requests,
                      const std::vector<std::string>& names,
                      RunResult* result);

// Seeded sample of up to `n` indices of successful requests that `keep`
// accepts, spread over templates (round-robin by template, seeded order
// within each).
std::vector<size_t> SampleRequests(const std::vector<Request>& requests,
                                   const std::function<bool(const Request&)>& keep,
                                   size_t n, uint64_t seed);

// Per-request layer figures from a replay, in ms.
struct LayerSample {
  double client_ms = 0;     // live PctClient::Call
  double query_ms = 0;      // PctDatabase::Query replay
  double prepare_ms = 0;    // PctDatabase::PrepareQuery replay
  double scan_ms = 0;       // FusedAggregate replay at the session's dop
  double wire_self_ms = 0;
  double executor_self_ms = 0;  // server micros - Query
  double core_self_ms = 0;      // Query - prepare - scan
  double clamped_ms = 0;        // time the replayed layers over-claim
  double scan_rows = 0;
};

// Replays one live read one layer lower at a time against the serving
// executor and database (the server stays up but idle).
LayerSample ReplayRead(const Request& r, pctagg::PctServer& server,
                       const pctagg::PctDatabase& db, const PhaseClock& clock);

// FusedAggregate over the statement's finest grouping, WHERE and measures,
// timed at `dop` (0 = the session default resolved by the pool). Returns ms
// and sets `*rows` to the input rows.
double TimeFusedScan(const pctagg::PctDatabase& db, const std::string& sql,
                     size_t dop, double* rows);

// Adds the per-layer metrics derived from replays and STATS deltas that
// every workload reports (others default to 0 and are set by the caller).
// `filtered_queries` is the base of mqo.batched_share.
void AddCommonLayerMetrics(const std::vector<Request>& requests,
                           const std::vector<LayerSample>& samples,
                           const Scrape& delta, double filtered_queries,
                           RunResult* result);

// Open-loop lateness (loadgen.lag_ms_p95) and, from the requests' sampler
// flags, trace.overhead_pct: p50 with the sampler on vs off.
void AddLoadgenMetrics(const std::vector<Request>& requests, bool open_loop,
                       RunResult* result);

// Polls the resident set (/proc/self/statm) every 10 ms through the timed
// phase. PeakMb() is the median over the kWindows windows of each window's
// highest sample: the footprint the phase keeps reaching, which one
// allocator spike in one window moves little (VmHWM, the single highest
// point, swung 11% between runs of one workload).
class RssSampler {
 public:
  explicit RssSampler(const PhaseClock* clock);
  ~RssSampler();

  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  void Stop();
  // Call after Stop(): until then the polling thread owns the samples.
  double PeakMb(double seconds) const;

 private:
  const PhaseClock* clock_;
  std::atomic<bool> stop_{false};
  std::vector<std::pair<double, double>> samples_;  // (ms, MB)
  std::thread thread_;
};

// Traced runs only: polls the executor's pool queue depth every 5 ms in
// alternating one-second windows (on, off, on, ...), so requests sent
// with the sampler running can be compared with those sent without it.
class QueueSampler {
 public:
  QueueSampler(pctagg::PctServer* server, const PhaseClock* clock);
  ~QueueSampler();

  QueueSampler(const QueueSampler&) = delete;
  QueueSampler& operator=(const QueueSampler&) = delete;

  static bool OnAt(double ms) {
    return static_cast<int64_t>(ms / 1000.0) % 2 == 0;
  }
  void Stop();
  size_t max_depth() const { return max_depth_.load(); }

 private:
  pctagg::PctServer* server_;
  const PhaseClock* clock_;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> max_depth_{0};
  std::thread thread_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
