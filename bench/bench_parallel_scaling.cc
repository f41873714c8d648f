// bench_parallel_scaling — measures the morsel-driven parallel operator
// kernels against the seed's scalar aggregation loop and reports per-DOP
// timings as JSON (BENCH_parallel.json, also echoed to stdout).
//
// Two comparisons:
//   1. The Fk-from-F aggregation kernel (GROUP BY dweek, monthNo over
//      sales): a faithful bench-local copy of the *seed* inner loop
//      (Table::AppendKeyBytes string key per row + unordered_map::emplace
//      per row — one node allocation per input row) versus the engine's
//      GROUP BY kernel, FusedAggregate (inline register keys, morsel-parallel
//      partials merged once) at DOP 1/2/4/8. "speedup_vs_seed"
//      is seed_ms / new_ms; the DOP=1 row doubles as the serial regression
//      guard (dop1_regression_pct must stay <= 5).
//   2. End-to-end Vpct / Hpct / OLAP-baseline queries through
//      PctDatabase::Query at each DOP.
//
// num_cores is AvailableParallelism(), the CPUs this process may run on: on
// a single-core host the DOP>1 rows show scheduling overhead, not scaling,
// and the headline number is the kernel rewrite's speedup over the seed
// loop.
//
// Flags / environment:
//   --smoke                   tiny rows + 1 repetition (TSan smoke target)
//   PCTAGG_PARALLEL_BENCH_ROWS  sales rows (default 1000000)
//   PCTAGG_PARALLEL_BENCH_REPS  repetitions, best-of (default 3)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/database.h"
#include "engine/parallel.h"
#include "engine/pipeline.h"
#include "workload/generators.h"

namespace {

using pctagg::PctDatabase;
using pctagg::QueryOptions;
using pctagg::Result;
using pctagg::StrFormat;
using pctagg::Table;

size_t EnvSize(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  long long n = std::atoll(v);
  return n > 0 ? static_cast<size_t>(n) : fallback;
}

constexpr size_t kDops[] = {1, 2, 4, 8};

// The seed's aggregation group-assignment + accumulate loop, copied
// shape-for-shape from the v0 hash aggregation so the baseline stays
// measurable after the engine moved on. Per row it builds the composite key
// through the type-tagged variant path (Table::AppendKeyBytes) and calls
// unordered_map::emplace — which in libstdc++ allocates a map node before
// probing (plus the key-string copy into it), i.e. per-row heap allocation
// even when the group already exists — then updates the same
// sum/count/min/max accumulator struct the seed used for every function.
// The emission phase is identical in both implementations and not measured
// (84 groups, noise).
struct SeedAggState {
  double sum = 0.0;
  int64_t isum = 0;
  int64_t count = 0;
  int64_t row_count = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  std::string smin;
  std::string smax;
  bool saw_value = false;
};

double SeedReferenceAggregateMs(const Table& t,
                                const std::vector<size_t>& key_cols,
                                size_t value_col, size_t* out_groups) {
  // The Vpct planner's Fk-from-F step emits exactly one spec per term:
  // sum(salesAmt) (vpct_planner.cc, BuildFkFromF). Mirror that.
  constexpr size_t kNumSpecs = 1;
  pctagg::Stopwatch timer;
  const pctagg::Column& in = t.column(value_col);
  std::unordered_map<std::string, size_t> group_of;
  std::vector<size_t> representative_row;
  std::vector<std::vector<SeedAggState>> states;
  const size_t n = t.num_rows();
  std::string key;
  for (size_t row = 0; row < n; ++row) {
    key.clear();
    t.AppendKeyBytes(row, key_cols, &key);
    auto [it, inserted] = group_of.emplace(key, states.size());
    if (inserted) {
      representative_row.push_back(row);
      states.emplace_back(kNumSpecs);
    }
    std::vector<SeedAggState>& gs = states[it->second];
    for (size_t a = 0; a < kNumSpecs; ++a) {
      SeedAggState& st = gs[a];
      st.row_count++;
      if (in.IsNull(row)) continue;
      st.count++;
      st.saw_value = true;
      double v = in.NumericAt(row);
      st.sum += v;
      if (in.type() == pctagg::DataType::kInt64) st.isum += in.Int64At(row);
      if (v < st.min) st.min = v;
      if (v > st.max) st.max = v;
    }
  }
  *out_groups = states.size();
  return timer.ElapsedMillis();
}

double NewAggregateMs(const Table& t, size_t dop, size_t* out_groups) {
  pctagg::Stopwatch timer;
  Result<Table> r = pctagg::FusedAggregate(
      t, nullptr, {"dweek", "monthNo"},
      {{pctagg::AggFunc::kSum, pctagg::Col("salesAmt"), "s"}}, dop);
  double ms = timer.ElapsedMillis();
  if (!r.ok()) {
    std::fprintf(stderr, "FusedAggregate failed: %s\n",
                 r.status().ToString().c_str());
    std::abort();
  }
  *out_groups = r.value().num_rows();
  return ms;
}

// Morsel-granularity sweep: the same column sum dispatched through
// RunMorsels at fixed morsel sizes and through MorselPlan::Auto, at dop=4.
// This is the measurement behind the adaptive bounds in engine/parallel.h —
// too-small morsels pay per-morsel bookkeeping, too-large ones starve
// dynamic balancing — and documents where Auto lands on this host.
double MorselSweepMs(const Table& t, size_t value_col,
                     const pctagg::MorselPlan& plan) {
  const pctagg::Column& in = t.column(value_col);
  pctagg::Stopwatch timer;
  std::vector<double> partial(plan.num_workers > 0 ? plan.num_workers : 1, 0.0);
  pctagg::RunMorsels(plan, [&](size_t worker, size_t begin, size_t end) {
    double s = 0.0;
    for (size_t i = begin; i < end; ++i) {
      if (!in.IsNull(i)) s += in.NumericAt(i);
    }
    partial[worker] += s;
  });
  double total = 0.0;
  for (double s : partial) total += s;
  if (total == 0.0) std::fprintf(stderr, "[sweep] empty sum\n");
  return timer.ElapsedMillis();
}

struct BenchQuery {
  const char* name;
  const char* sql;
  bool olap;
};

constexpr BenchQuery kQueries[] = {
    {"vpct",
     "SELECT monthNo, dweek, Vpct(salesAmt BY dweek) AS pct FROM sales "
     "GROUP BY monthNo, dweek",
     false},
    {"hpct",
     "SELECT store, Hpct(salesAmt BY dweek) FROM sales GROUP BY store",
     false},
    {"olap",
     "SELECT dweek, Vpct(salesAmt) AS pct FROM sales GROUP BY dweek",
     true},
};

double QueryMs(const PctDatabase& db, const BenchQuery& q, size_t dop) {
  QueryOptions options;
  options.degree_of_parallelism = dop;
  options.olap_baseline = q.olap;
  pctagg::Stopwatch timer;
  Result<Table> r = db.Query(q.sql, options);
  double ms = timer.ElapsedMillis();
  if (!r.ok() || r.value().num_rows() == 0) {
    std::fprintf(stderr, "benchmark query failed: %s\n%s\n",
                 r.status().ToString().c_str(), q.sql);
    std::abort();
  }
  return ms;
}

template <typename Fn>
double BestOf(size_t reps, Fn&& fn) {
  double best = fn();
  for (size_t i = 1; i < reps; ++i) {
    double ms = fn();
    if (ms < best) best = ms;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  size_t rows = EnvSize("PCTAGG_PARALLEL_BENCH_ROWS", smoke ? 20000 : 1000000);
  size_t reps = EnvSize("PCTAGG_PARALLEL_BENCH_REPS", smoke ? 1 : 3);
  size_t num_cores = pctagg::AvailableParallelism();

  std::fprintf(stderr, "[setup] generating sales n=%zu (cores=%zu)...\n", rows,
               num_cores);
  PctDatabase db;
  if (!db.CreateTable("sales", pctagg::GenerateSales(rows)).ok()) {
    std::fprintf(stderr, "table setup failed\n");
    return 1;
  }
  const Table& sales = *db.catalog().GetTable("sales").value();
  std::vector<size_t> key_cols = {
      sales.schema().FindColumn("dweek").value(),
      sales.schema().FindColumn("monthNo").value()};
  size_t value_col = sales.schema().FindColumn("salesAmt").value();

  // --- Kernel comparison: seed scalar loop vs FusedAggregate at each DOP.
  size_t seed_groups = 0;
  double seed_ms = BestOf(reps, [&] {
    return SeedReferenceAggregateMs(sales, key_cols, value_col, &seed_groups);
  });
  std::fprintf(stderr, "[agg] seed reference: %.2f ms (%zu groups)\n", seed_ms,
               seed_groups);

  std::string agg_json;
  double dop1_ms = 0;
  for (size_t dop : kDops) {
    size_t groups = 0;
    double ms = BestOf(reps, [&] { return NewAggregateMs(sales, dop, &groups); });
    if (groups != seed_groups) {
      std::fprintf(stderr, "group count mismatch: %zu vs %zu\n", groups,
                   seed_groups);
      return 1;
    }
    if (dop == 1) dop1_ms = ms;
    std::fprintf(stderr, "[agg] dop=%zu: %.2f ms (%.2fx vs seed)\n", dop, ms,
                 seed_ms / ms);
    agg_json += StrFormat(
        "      {\"dop\": %zu, \"ms\": %.3f, \"speedup_vs_seed\": %.3f}%s\n",
        dop, ms, seed_ms / ms, dop == 8 ? "" : ",");
  }
  // Serial regression guard: the DOP=1 path of the new kernel vs the seed
  // loop. Negative = faster than seed.
  double dop1_regression_pct = (dop1_ms - seed_ms) / seed_ms * 100.0;

  // --- Morsel-size sweep at dop=4: fixed granularities vs MorselPlan::Auto.
  std::string sweep_json;
  constexpr size_t kSweepSizes[] = {4096, 16384, 65536, 262144};
  for (size_t mr : kSweepSizes) {
    pctagg::MorselPlan plan = pctagg::MorselPlan::For(rows, 4, mr);
    double ms =
        BestOf(reps, [&] { return MorselSweepMs(sales, value_col, plan); });
    std::fprintf(stderr, "[sweep] morsel_rows=%zu: %.2f ms (%zu morsels)\n", mr,
                 ms, plan.num_morsels);
    sweep_json += StrFormat(
        "    {\"morsel_rows\": %zu, \"num_morsels\": %zu, \"ms\": %.3f},\n", mr,
        plan.num_morsels, ms);
  }
  {
    pctagg::MorselPlan plan = pctagg::MorselPlan::Auto(rows, 4);
    double ms =
        BestOf(reps, [&] { return MorselSweepMs(sales, value_col, plan); });
    std::fprintf(stderr,
                 "[sweep] auto: morsel_rows=%zu workers=%zu: %.2f ms "
                 "(%zu morsels)\n",
                 plan.morsel_rows, plan.num_workers, ms, plan.num_morsels);
    sweep_json += StrFormat(
        "    {\"morsel_rows\": %zu, \"num_morsels\": %zu, \"ms\": %.3f, "
        "\"auto\": true, \"workers\": %zu}\n",
        plan.morsel_rows, plan.num_morsels, ms, plan.num_workers);
  }

  // --- End-to-end queries per DOP.
  std::string query_json;
  for (size_t qi = 0; qi < sizeof(kQueries) / sizeof(kQueries[0]); ++qi) {
    const BenchQuery& q = kQueries[qi];
    query_json += StrFormat("    {\"name\": \"%s\", \"dop_ms\": [", q.name);
    for (size_t di = 0; di < 4; ++di) {
      size_t dop = kDops[di];
      double ms = BestOf(reps, [&] { return QueryMs(db, q, dop); });
      std::fprintf(stderr, "[query] %s dop=%zu: %.2f ms\n", q.name, dop, ms);
      query_json += StrFormat("%.3f%s", ms, di == 3 ? "" : ", ");
    }
    query_json += StrFormat(
        "]}%s\n", qi + 1 == sizeof(kQueries) / sizeof(kQueries[0]) ? "" : ",");
  }

  std::string json = StrFormat(
      "{\n"
      "  \"benchmark\": \"parallel_scaling\",\n"
      "  \"rows\": %zu,\n"
      "  \"num_cores\": %zu,\n"
      "  \"repetitions\": %zu,\n"
      "  \"aggregate\": {\n"
      "    \"groups\": %zu,\n"
      "    \"seed_reference_ms\": %.3f,\n"
      "    \"dop1_regression_pct\": %.2f,\n"
      "    \"dop\": [\n%s    ]\n"
      "  },\n"
      "  \"morsel_sweep\": [\n%s  ],\n"
      "  \"queries\": [\n%s  ]\n"
      "}\n",
      rows, num_cores, reps, seed_groups, seed_ms, dop1_regression_pct,
      agg_json.c_str(), sweep_json.c_str(), query_json.c_str());

  std::fputs(json.c_str(), stdout);
  FILE* f = std::fopen("BENCH_parallel.json", "w");
  if (f != nullptr) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::fprintf(stderr, "[bench] wrote BENCH_parallel.json\n");
  }
  if (dop1_regression_pct > 5.0) {
    std::fprintf(stderr,
                 "FAIL: DOP=1 regression %.2f%% exceeds the 5%% budget\n",
                 dop1_regression_pct);
    return 1;
  }
  return 0;
}
