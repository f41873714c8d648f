// ingest: one writer appending seeded 1000-row INSERT batches beside three
// readers of unfiltered Vpct/Hpct/CUBE queries, all open loop, over `sales`
// in a data directory (WAL fsync policy: batch) with the summary cache on.
// After the timed phase the database is dropped without a checkpoint and
// reopened: recovery time, acknowledged rows, then a timed CHECKPOINT.

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "reference.h"
#include "server/session.h"
#include "workload/generators.h"
#include "workloads.h"

namespace perfbench {
namespace {

using pctagg::PctClient;
using pctagg::PctDatabase;
using pctagg::PctServer;
using pctagg::Table;

// Data dirs live here, inside the checkout; each run removes its own.
constexpr const char* kWorkDir = ".bench_work";
constexpr size_t kBatchRows = 1000;
// Appends hold the writer-exclusive lock for a few ms each; at this rate
// they block well over 5% of reads, so query_p95_ms sits among the blocked
// reads rather than on the boundary between blocked and unblocked ones.
constexpr double kAppendsPerSecond = 12.0;
constexpr int kReaders = 3;
constexpr double kReadsPerSecondPerReader = 16.0;

// Reader statements. Each carries count(*) AS n, so the answer says how
// many appended batches it saw: the sum of n over the result is the table's
// row count times the number of grouping levels.
struct ReadTemplate {
  const char* sql;
  int levels;
};
constexpr ReadTemplate kReads[] = {
    {"SELECT state, city, Vpct(salesAmt BY city) AS pct, count(*) AS n "
     "FROM sales GROUP BY state, city",
     1},
    {"SELECT state, Hpct(salesAmt BY dweek), count(*) AS n FROM sales "
     "GROUP BY state",
     1},
    {"SELECT state, dweek, sum(salesAmt) AS amt, count(*) AS n FROM sales "
     "GROUP BY CUBE(state, dweek)",
     4},
};
constexpr int kNumReads = sizeof(kReads) / sizeof(kReads[0]);

// One append batch, as the INSERT sent over the wire and as the table the
// reference and scratch databases append in-process.
struct Batch {
  std::string sql;
  Table rows;
};

// Rows with the value distribution of GenerateSales; row ids continue after
// the base table's so every acknowledged row can be found after recovery.
std::vector<Batch> MakeBatches(size_t count, size_t base_rows, uint64_t seed,
                               const pctagg::Schema& schema) {
  std::mt19937_64 gen(seed);
  std::vector<Batch> out(count);
  for (size_t b = 0; b < count; ++b) {
    Batch& batch = out[b];
    batch.rows = Table(schema);
    batch.sql = "INSERT INTO sales VALUES ";
    for (size_t i = 0; i < kBatchRows; ++i) {
      const int64_t rid = static_cast<int64_t>(base_rows + b * kBatchRows + i + 1);
      const int64_t v[8] = {static_cast<int64_t>(gen() % 1000),
                            static_cast<int64_t>(gen() % 7 + 1),
                            static_cast<int64_t>(gen() % 12 + 1),
                            static_cast<int64_t>(gen() % 100),
                            static_cast<int64_t>(gen() % 20),
                            static_cast<int64_t>(gen() % 5),
                            static_cast<int64_t>(gen() % 100), 0};
      const double amt =
          1.0 + static_cast<double>(gen() >> 11) * 0x1.0p-53 * 99.0;
      std::vector<pctagg::Value> row = {pctagg::Value::Int64(rid),
                                        pctagg::Value::Int64(rid)};
      for (int c = 0; c < 7; ++c) row.push_back(pctagg::Value::Int64(v[c]));
      row.push_back(pctagg::Value::Float64(amt));
      batch.rows.AppendRow(row);
      batch.sql += pctagg::StrFormat(
          "%s(%lld, %lld, %lld, %lld, %lld, %lld, %lld, %lld, %lld, %.17g)",
          i == 0 ? "" : ", ", (long long)rid, (long long)rid, (long long)v[0],
          (long long)v[1], (long long)v[2], (long long)v[3], (long long)v[4],
          (long long)v[5], (long long)v[6], amt);
    }
  }
  return out;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& e :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) bytes += e.file_size(ec);
  }
  return bytes;
}

// Batches a read saw, from its count(*) column; -1 when unreadable.
int64_t BatchesSeen(const Request& r, size_t base_rows) {
  const auto rows = ParseCsvRows(r.body);
  if (rows.empty()) return -1;
  int n_col = -1;
  for (size_t c = 0; c < rows[0].size(); ++c) {
    if (rows[0][c] == "n") n_col = static_cast<int>(c);
  }
  if (n_col < 0) return -1;
  int64_t total = 0;
  for (size_t i = 1; i < rows.size(); ++i) {
    total += std::strtoll(rows[i][static_cast<size_t>(n_col)].c_str(),
                          nullptr, 10);
  }
  total /= kReads[r.tmpl].levels;
  const int64_t extra = total - static_cast<int64_t>(base_rows);
  if (extra < 0 || extra % static_cast<int64_t>(kBatchRows) != 0) return -1;
  return extra / static_cast<int64_t>(kBatchRows);
}

// Checks every read against the reference path on the table as it stood
// after the number of batches that read saw. The distinct states are split
// into four contiguous runs, each walked by its own reference database.
void CheckGrowingReads(const std::vector<Request>& requests, size_t base_rows,
                       uint64_t data_seed, const std::vector<Batch>& batches,
                       RunResult* result) {
  std::map<int64_t, std::vector<const Request*>> by_state;
  for (const Request& r : requests) {
    if (r.append || !r.ok) continue;
    const int64_t k = BatchesSeen(r, base_rows);
    if (k < 0 || static_cast<size_t>(k) > batches.size()) {
      result->Fail("read saw an impossible row count: [" + r.sql + "]");
      return;
    }
    by_state[k].push_back(&r);
  }
  std::vector<int64_t> states;
  for (const auto& [k, reads] : by_state) states.push_back(k);
  const size_t workers = std::min<size_t>(4, states.size());
  std::mutex mu;
  std::vector<std::thread> threads;
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      const size_t lo = states.size() * w / workers;
      const size_t hi = states.size() * (w + 1) / workers;
      PctDatabase ref;
      ref.CreateTable("sales", pctagg::GenerateSales(base_rows, data_seed));
      size_t applied = 0;
      for (size_t s = lo; s < hi; ++s) {
        while (applied < static_cast<size_t>(states[s])) {
          ref.AppendRows("sales", batches[applied++].rows);
        }
        std::map<std::string, std::vector<const Request*>> by_sql;
        for (const Request* r : by_state[states[s]]) by_sql[r->sql].push_back(r);
        for (const auto& [sql, reads] : by_sql) {
          auto want = ref.Query(sql, ReferenceOptions());
          auto query = ref.PrepareQuery(sql);
          std::string why;
          if (!want.ok() || !query.ok()) {
            why = "reference failed: " +
                  (want.ok() ? query.status() : want.status()).ToString();
          } else {
            for (const Request* r : reads) {
              if (!CheckAnswer(r->body, *want, *query, &why)) break;
            }
          }
          if (!why.empty()) {
            std::lock_guard<std::mutex> lock(mu);
            result->Fail(pctagg::StrFormat("wrong answer after %lld batches "
                                           "to [%s]: %s",
                                           (long long)states[s], sql.c_str(),
                                           why.c_str()));
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

struct Fixture {
  std::string dir;
  std::unique_ptr<PctDatabase> db;
  std::unique_ptr<PctServer> server;
};

}  // namespace

RunResult RunIngest(const Options& opts) {
  RunResult result;
  const size_t rows = opts.smoke ? 20000 : 1000000;
  const uint64_t data_seed = DataSeed(opts.seed);
  pctagg::storage::StorageOptions storage;
  storage.fsync = pctagg::storage::FsyncPolicy::kBatch;
  Fixture fx;
  std::string setup_error;
  // Forked set-ups (TimedSetup) write the same dir and leave it behind; each
  // set-up starts by clearing it.
  fx.dir = pctagg::StrFormat("%s/ingest-%d", kWorkDir,
                             static_cast<int>(getpid()));
  auto setup = [&] {
    std::filesystem::remove_all(fx.dir);
    std::filesystem::create_directories(fx.dir);
    fx.db = std::make_unique<PctDatabase>();
    fx.db->EnableSummaryCache(true);
    storage.data_dir = fx.dir;
    pctagg::Status st = fx.db->OpenStorage(storage);
    if (st.ok()) {
      st = fx.db->CreateTable("sales", pctagg::GenerateSales(rows, data_seed));
    }
    fx.server = std::make_unique<PctServer>(fx.db.get(), pctagg::ServerConfig());
    if (st.ok()) st = fx.server->Start();
    pctagg::Result<PctClient> c =
        st.ok() ? OpenSession(fx.server->port(), {})
                : pctagg::Result<PctClient>(st);
    if (!c.ok()) {
      setup_error = c.status().ToString();
      return;
    }
    // Warm-up fills the summary cache, so appends have summaries to merge.
    for (const ReadTemplate& t : kReads) c->Query(t.sql);
  };
  auto teardown = [&] {
    fx.server.reset();
    fx.db.reset();
    std::filesystem::remove_all(fx.dir);
  };
  const double setup_s = TimedSetup(kSetups, setup);
  if (!setup_error.empty()) {
    result.Fail("setup: " + setup_error);
    teardown();
    return result;
  }
  const pctagg::Schema schema =
      (*fx.db->catalog().GetTable("sales"))->schema();
  const std::vector<double> append_due =
      OpenLoopSchedule(kAppendsPerSecond, opts.seconds, opts.seed);
  const std::vector<Batch> batches =
      MakeBatches(append_due.size(), rows, opts.seed ^ 0xA99E4D, schema);
  const pctagg::QueryOptions defaults = pctagg::Session(0, 0).query_options();

  // Requests: appends first, then each reader's reads.
  std::vector<Request> requests;
  for (size_t i = 0; i < batches.size(); ++i) {
    Request r;
    r.append = true;
    r.verb = pctagg::RequestVerb::kAppend;
    r.sql = batches[i].sql;
    r.t.due_ms = append_due[i];
    requests.push_back(std::move(r));
  }
  std::vector<std::pair<size_t, size_t>> reader_range;
  BlockMix mix(std::vector<int>(kNumReads, 1), opts.seed);
  for (int j = 0; j < kReaders; ++j) {
    const size_t first = requests.size();
    for (double due :
         OpenLoopSchedule(kReadsPerSecondPerReader, opts.seconds,
                          opts.seed * 31 + static_cast<uint64_t>(j))) {
      Request r;
      r.conn = j + 1;
      r.tmpl = mix.Next();
      r.sql = kReads[r.tmpl].sql;
      r.options = defaults;
      r.t.due_ms = due;
      requests.push_back(std::move(r));
    }
    reader_range.emplace_back(first, requests.size());
  }
  for (size_t i = 0; i < requests.size(); ++i) requests[i].id = i;

  Scrape before;
  if (opts.trace) before = ScrapeStats(fx.server->port());
  const double rss_start = ProcStatus("VmRSS");
  PhaseClock clock;
  RssSampler rss(&clock);
  std::unique_ptr<QueueSampler> sampler;
  if (opts.trace) sampler = std::make_unique<QueueSampler>(fx.server.get(), &clock);
  auto drive = [&](size_t lo, size_t hi) {
    pctagg::Result<PctClient> c = OpenSession(fx.server->port(), {});
    for (size_t i = lo; i < hi; ++i) {
      Request& r = requests[i];
      clock.SleepUntil(r.t.due_ms);
      if (!c.ok()) {
        r.t.sent_ms = r.t.done_ms = clock.NowMs();
        r.error = "connect: " + c.status().ToString();
        continue;
      }
      TimedCall(*c, clock, &r);
      r.sampler_on = sampler && QueueSampler::OnAt(r.t.sent_ms);
    }
  };
  std::vector<std::thread> conns;
  conns.emplace_back(drive, 0, batches.size());
  for (const auto& [lo, hi] : reader_range) conns.emplace_back(drive, lo, hi);
  for (std::thread& t : conns) t.join();
  if (sampler) sampler->Stop();
  rss.Stop();
  AddQueryMetrics(requests, std::vector<double>(kNumReads, 1.0), setup_s,
                  opts.seconds, rss.PeakMb(opts.seconds), &result);
  auto& m = result.metrics;
  std::vector<double> append_ms;
  size_t acked = 0;
  for (const Request& r : requests) {
    if (r.append && r.ok) {
      append_ms.push_back(r.t.LatencyMs());
      ++acked;
    }
  }
  m["append_p50_ms"] = Percentile(append_ms, 0.5);
  m["append_p95_ms"] = Percentile(append_ms, 0.95);
  const double table_rows = static_cast<double>(rows + acked * kBatchRows);
  m["disk_bytes_per_row"] =
      static_cast<double>(DirBytes(fx.dir)) / table_rows;

  if (opts.trace) {
    m["server.threads_end"] = ProcStatus("Threads");
    m["server.vm_growth_mb"] = (ProcStatus("VmRSS") - rss_start) / 1024.0;
    m["executor.queue_depth_max"] = static_cast<double>(sampler->max_depth());
    const Scrape delta = Delta(ScrapeStats(fx.server->port()), before);
    std::vector<LayerSample> samples;
    for (size_t i : SampleRequests(
             requests, [](const Request& r) { return !r.append; }, 2 * kNumReads,
             opts.seed ^ 0x5eed)) {
      samples.push_back(ReplayRead(requests[i], *fx.server, *fx.db, clock));
    }
    AddCommonLayerMetrics(requests, samples, delta, 0, &result);
    AddLoadgenMetrics(requests, /*open_loop=*/true, &result);
    const double appended = static_cast<double>(acked * kBatchRows);
    m["storage.wal_bytes_per_row"] =
        appended > 0 ? Get(delta, "pctagg_storage_wal_bytes_total") / appended
                     : 0.0;
    m["storage.wal_fsyncs"] = Get(delta, "pctagg_storage_wal_fsyncs_total");
    // PctDatabase::AppendRows on a scratch in-memory copy whose cache holds
    // the readers' summaries, as the served table's did.
    PctDatabase scratch;
    scratch.EnableSummaryCache(true);
    scratch.CreateTable("sales", pctagg::GenerateSales(rows, data_seed));
    for (const ReadTemplate& t : kReads) scratch.Query(t.sql);
    std::vector<double> ms;
    for (size_t b = 0; b < batches.size() && b < 20; ++b) {
      pctagg::Stopwatch timer;
      scratch.AppendRows("sales", batches[b].rows);
      ms.push_back(timer.ElapsedMillis());
    }
    m["core.append_rows_ms_p50"] = Median(ms);
  }

  // Drop without a checkpoint, then recover from the data dir.
  fx.server.reset();
  fx.db.reset();
  {
    PctDatabase recovered;
    pctagg::Stopwatch timer;
    storage.data_dir = fx.dir;
    pctagg::Status st = recovered.OpenStorage(storage);
    m["recovery_s"] = timer.ElapsedSeconds();
    if (!st.ok()) {
      result.Fail("recovery: " + st.ToString());
    } else {
      m["storage.recovery_wal_records"] = static_cast<double>(
          recovered.storage()->recovery_stats().wal_records_replayed);
      auto table = recovered.catalog().GetTable("sales");
      std::vector<int64_t> want;
      for (size_t i = 1; i <= rows; ++i) want.push_back(static_cast<int64_t>(i));
      for (const Request& r : requests) {
        if (!r.append || !r.ok) continue;
        const Table& b = batches[r.id].rows;
        for (size_t i = 0; i < b.num_rows(); ++i) {
          want.push_back(b.column(0).Int64At(i));
        }
      }
      std::vector<int64_t> got;
      if (table.ok()) {
        const pctagg::Column& rid = (*table)->column(0);
        for (size_t i = 0; i < rid.size(); ++i) got.push_back(rid.Int64At(i));
      }
      std::sort(want.begin(), want.end());
      std::sort(got.begin(), got.end());
      if (got != want) {
        result.Fail(pctagg::StrFormat(
            "after recovery the table holds %zu rows, %zu acknowledged",
            got.size(), want.size()));
      }
      pctagg::Stopwatch ckpt;
      auto c = recovered.Checkpoint();
      if (opts.trace) m["storage.checkpoint_ms"] = ckpt.ElapsedMillis();
      if (!c.ok()) result.Fail("checkpoint: " + c.status().ToString());
    }
  }
  std::filesystem::remove_all(fx.dir);

  CheckGrowingReads(requests, rows, data_seed, batches, &result);
  result.notes.push_back(pctagg::StrFormat(
      "ingest: sales %zu rows in a data dir, wal_fsync batch, cache on; "
      "1 writer %.1f appends/s of %zu rows, %d readers %.1f reads/s each, "
      "open loop; %zu appends acknowledged",
      rows, kAppendsPerSecond, kBatchRows, kReaders, kReadsPerSecondPerReader,
      acked));
  return result;
}

}  // namespace perfbench
