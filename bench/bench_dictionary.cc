// bench_dictionary — measures dictionary-encoded string dimensions against
// the seed's string-keyed aggregation path and reports JSON
// (BENCH_dictionary.json, also echoed to stdout).
//
// Workload: GenerateSalesNamed — the paper's sales table with human-readable
// STRING dimensions (dweek "Mon".."Sun", monthNo "Jan".."Dec",
// store "store000".."store099", ...), same cardinalities and the same RNG
// draw sequence as the all-integer GenerateSales.
//
// Sections:
//   1. Fk-from-F kernel (GROUP BY dweek, monthNo; sum(salesAmt)): a faithful
//      bench-local copy of the *seed* string path — per row, materialized
//      std::string dimension values (the seed stored strings row-wise in the
//      column; the copies are built outside the timed region) encoded as
//      's' + u32 length + bytes, then unordered_map::emplace — versus the
//      engine's GROUP BY kernel (FusedAggregate), where the 4-byte
//      dictionary codes are the key words. DOP 1/2/4/8;
//      "speedup_vs_seed" = seed_ms / new_ms. The DOP=1 row is the headline:
//      it must be >= 2x or the binary exits 1.
//   2. The same comparison for GROUP BY store alone — a single small-domain
//      string key, which the aggregate executes with the direct
//      code-indexed-array kernel (no hash table at all).
//   3. End-to-end string-keyed Vpct / Hpct queries at DOP 1 and 4.
//   4. Correctness checks on a quantized copy of the data (salesAmt rounded
//      to whole numbers, so FLOAT64 sums are exact and order-independent):
//      the rendered result CSV must be bit-for-bit identical across DOP 1/4,
//      and the numeric result columns of the string-keyed queries must be
//      bit-for-bit identical to the integer-keyed (pre-dictionary-shaped)
//      runs of the same queries. The timing sections keep the continuous
//      measure; there, cross-DOP float sums agree only to rounding because
//      FP addition is not associative.
//
// Flags / environment:
//   --smoke                  tiny rows + 1 repetition
//   PCTAGG_DICT_BENCH_ROWS   sales rows (default 1000000)
//   PCTAGG_DICT_BENCH_REPS   repetitions, best-of (default 3)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/database.h"
#include "engine/csv.h"
#include "engine/pipeline.h"
#include "workload/generators.h"

namespace {

using pctagg::Column;
using pctagg::PctDatabase;
using pctagg::QueryOptions;
using pctagg::Result;
using pctagg::StrFormat;
using pctagg::Table;
using pctagg::Value;

size_t EnvSize(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  long long n = std::atoll(v);
  return n > 0 ? static_cast<size_t>(n) : fallback;
}

constexpr size_t kDops[] = {1, 2, 4, 8};

// One string dimension column as the seed stored it: a row-wise value array.
// Built outside the timed region — the seed paid this cost at load time.
struct SeedStringColumn {
  std::vector<std::string> values;
  std::vector<char> valid;
};

SeedStringColumn MaterializeSeedColumn(const Column& col) {
  SeedStringColumn out;
  const size_t n = col.size();
  out.values.resize(n);
  out.valid.resize(n, 1);
  for (size_t r = 0; r < n; ++r) {
    if (col.IsNull(r)) {
      out.valid[r] = 0;
    } else {
      out.values[r] = std::string(col.StringAt(r));
    }
  }
  return out;
}

// The seed's accumulator struct, as in bench_parallel_scaling.
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

// The seed's string group-assignment + accumulate loop: per row, each key
// column contributes 's' + u32 length + bytes (NULL -> '\0'), then
// unordered_map::emplace — one map-node allocation per input row in
// libstdc++, plus the composite key-string copy.
double SeedReferenceAggregateMs(
    const std::vector<const SeedStringColumn*>& keys, const Column& in,
    size_t* out_groups) {
  pctagg::Stopwatch timer;
  std::unordered_map<std::string, size_t> group_of;
  std::vector<SeedAggState> states;
  const size_t n = in.size();
  std::string key;
  for (size_t row = 0; row < n; ++row) {
    key.clear();
    for (const SeedStringColumn* kc : keys) {
      if (!kc->valid[row]) {
        key.push_back('\0');
        continue;
      }
      const std::string& s = kc->values[row];
      key.push_back('s');
      uint32_t len = static_cast<uint32_t>(s.size());
      char buf[sizeof(len)];
      std::memcpy(buf, &len, sizeof(len));
      key.append(buf, sizeof(len));
      key.append(s);
    }
    auto [it, inserted] = group_of.emplace(key, states.size());
    if (inserted) states.emplace_back();
    SeedAggState& st = states[it->second];
    st.row_count++;
    if (in.IsNull(row)) continue;
    st.count++;
    st.saw_value = true;
    double v = in.NumericAt(row);
    st.sum += v;
    if (v < st.min) st.min = v;
    if (v > st.max) st.max = v;
  }
  *out_groups = states.size();
  return timer.ElapsedMillis();
}

double NewAggregateMs(const Table& t, const std::vector<std::string>& keys,
                      size_t dop, size_t* out_groups) {
  pctagg::Stopwatch timer;
  Result<Table> r = pctagg::FusedAggregate(
      t, nullptr, keys,
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

template <typename Fn>
double BestOf(size_t reps, Fn&& fn) {
  double best = fn();
  for (size_t i = 1; i < reps; ++i) {
    double ms = fn();
    if (ms < best) best = ms;
  }
  return best;
}

// One kernel comparison (seed loop vs FusedAggregate across kDops), rendered
// as the JSON object bench_smoke.py reads: {groups, seed_reference_ms,
// dop1_regression_pct, dop: [{dop, ms, speedup_vs_seed}]}.
std::string KernelSection(const Table& t, const std::vector<std::string>& keys,
                          size_t reps, const char* label,
                          double* out_dop1_speedup) {
  std::vector<SeedStringColumn> materialized;
  materialized.reserve(keys.size());
  for (const std::string& k : keys) {
    materialized.push_back(
        MaterializeSeedColumn(*t.ColumnByName(k).value()));
  }
  std::vector<const SeedStringColumn*> key_ptrs;
  for (const SeedStringColumn& c : materialized) key_ptrs.push_back(&c);
  const Column& in = *t.ColumnByName("salesAmt").value();

  size_t seed_groups = 0;
  double seed_ms = BestOf(reps, [&] {
    return SeedReferenceAggregateMs(key_ptrs, in, &seed_groups);
  });
  std::fprintf(stderr, "[%s] seed reference: %.2f ms (%zu groups)\n", label,
               seed_ms, seed_groups);

  std::string dop_json;
  double dop1_ms = 0;
  for (size_t dop : kDops) {
    size_t groups = 0;
    double ms =
        BestOf(reps, [&] { return NewAggregateMs(t, keys, dop, &groups); });
    if (groups != seed_groups) {
      std::fprintf(stderr, "group count mismatch: %zu vs %zu\n", groups,
                   seed_groups);
      std::abort();
    }
    if (dop == 1) dop1_ms = ms;
    std::fprintf(stderr, "[%s] dop=%zu: %.2f ms (%.2fx vs seed)\n", label, dop,
                 ms, seed_ms / ms);
    dop_json += StrFormat(
        "      {\"dop\": %zu, \"ms\": %.3f, \"speedup_vs_seed\": %.3f}%s\n",
        dop, ms, seed_ms / ms, dop == 8 ? "" : ",");
  }
  *out_dop1_speedup = seed_ms / dop1_ms;
  return StrFormat(
      "{\n"
      "    \"groups\": %zu,\n"
      "    \"seed_reference_ms\": %.3f,\n"
      "    \"dop1_regression_pct\": %.2f,\n"
      "    \"dop\": [\n%s    ]\n"
      "  }",
      seed_groups, seed_ms, (dop1_ms - seed_ms) / seed_ms * 100.0,
      dop_json.c_str());
}

// salesAmt rounded to whole numbers: integer-valued doubles sum exactly, so
// aggregation results are bit-identical regardless of accumulation order.
Table Quantized(const Table& src) {
  Table t(src.schema());
  t.Reserve(src.num_rows());
  const size_t amt = src.schema().FindColumn("salesAmt").value();
  std::vector<Value> row;
  row.reserve(src.num_columns());
  for (size_t r = 0; r < src.num_rows(); ++r) {
    row.clear();
    for (size_t c = 0; c < src.num_columns(); ++c) {
      Value v = src.column(c).GetValue(r);
      if (c == amt && !v.is_null()) {
        v = Value::Float64(std::round(v.AsDouble()));
      }
      row.push_back(std::move(v));
    }
    t.AppendRow(row);
  }
  return t;
}

struct BenchQuery {
  const char* name;
  const char* sql;
  size_t key_cols;  // leading group-by columns, skipped by NumericCsv
  bool vertical;    // Vpct (else Hpct)
};

constexpr BenchQuery kQueries[] = {
    {"vpct",
     "SELECT monthNo, dweek, Vpct(salesAmt BY dweek) AS pct FROM sales "
     "GROUP BY monthNo, dweek",
     2, true},
    {"hpct", "SELECT store, Hpct(salesAmt BY dweek) FROM sales GROUP BY store",
     1, false},
};

// `forced` pins one strategy per query class. The identity checks compare
// runs across tables and DOPs, and the advisor may legitimately choose
// different (answer-equivalent, differently row-ordered) plans for
// dictionary-encoded vs integer dimensions; bit-for-bit comparison needs
// the same plan on both sides. Timing runs keep the advisor's choice.
Table RunQuery(const PctDatabase& db, const BenchQuery& q, size_t dop,
               bool forced) {
  QueryOptions options;
  options.degree_of_parallelism = dop;
  if (forced) {
    if (q.vertical) {
      options.vpct_strategy = pctagg::VpctStrategy{};
    } else {
      pctagg::HorizontalStrategy h;
      h.method = pctagg::HorizontalMethod::kCaseDirect;
      options.horizontal_strategy = h;
    }
  }
  Result<Table> r = db.Query(q.sql, options);
  if (!r.ok() || r.value().num_rows() == 0) {
    std::fprintf(stderr, "benchmark query failed: %s\n%s\n",
                 r.status().ToString().c_str(), q.sql);
    std::abort();
  }
  return std::move(r.value());
}

// Orders a result column for comparison. Pivot output columns are named
// "dweek=<value>" and sorted by value — numerically for the integer table
// (1..7), lexicographically for the string table ("Fri" < "Mon" < ...) —
// so the same logical cell sits at a different position on each side. Rank
// day names by their day number to line the two orders up.
size_t CanonicalRank(const std::string& name) {
  static const char* const kDweek[] = {"Mon", "Tue", "Wed", "Thu",
                                       "Fri", "Sat", "Sun"};
  const size_t eq = name.find('=');
  if (eq == std::string::npos) return 0;
  const std::string suffix = name.substr(eq + 1);
  for (size_t i = 0; i < 7; ++i) {
    if (suffix == kDweek[i]) return i + 1;
  }
  return static_cast<size_t>(std::atoll(suffix.c_str()));
}

// Renders only the columns after the group-by keys, in canonical pivot
// order, so string-keyed and integer-keyed runs of the same query compare
// positionally: both tables come from the same RNG draw sequence, so groups
// appear in the same first-seen order and row i denotes the same logical
// group in both.
std::string NumericCsv(const Table& t, size_t skip_cols) {
  std::vector<size_t> order;
  for (size_t c = skip_cols; c < t.num_columns(); ++c) order.push_back(c);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return CanonicalRank(t.schema().column(a).name) <
           CanonicalRank(t.schema().column(b).name);
  });
  std::string out;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t i = 0; i < order.size(); ++i) {
      if (i > 0) out.push_back(',');
      const Column& col = t.column(order[i]);
      if (col.IsNull(r)) {
        out += "NULL";
      } else if (col.type() == pctagg::DataType::kFloat64) {
        out += StrFormat("%.17g", col.Float64At(r));
      } else if (col.type() == pctagg::DataType::kInt64) {
        out += StrFormat("%lld", static_cast<long long>(col.Int64At(r)));
      } else {
        out += std::string(col.StringAt(r));
      }
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  size_t rows = EnvSize("PCTAGG_DICT_BENCH_ROWS", smoke ? 20000 : 1000000);
  size_t reps = EnvSize("PCTAGG_DICT_BENCH_REPS", smoke ? 1 : 3);
  size_t num_cores = std::thread::hardware_concurrency();

  std::fprintf(stderr, "[setup] generating named sales n=%zu (cores=%zu)...\n",
               rows, num_cores);
  PctDatabase db;
  if (!db.CreateTable("sales", pctagg::GenerateSalesNamed(rows)).ok()) {
    std::fprintf(stderr, "table setup failed\n");
    return 1;
  }
  const Table& sales = *db.catalog().GetTable("sales").value();

  // --- Kernel comparisons.
  double packed_speedup = 0, direct_speedup = 0;
  std::string agg_json = KernelSection(sales, {"dweek", "monthNo"}, reps,
                                       "agg", &packed_speedup);
  std::string direct_json =
      KernelSection(sales, {"store"}, reps, "direct", &direct_speedup);

  // --- End-to-end string-keyed queries at DOP 1 and 4.
  std::string query_json;
  for (size_t qi = 0; qi < sizeof(kQueries) / sizeof(kQueries[0]); ++qi) {
    const BenchQuery& q = kQueries[qi];
    query_json += StrFormat("    {\"name\": \"%s\", \"dop_ms\": [", q.name);
    for (size_t di = 0; di < 2; ++di) {
      size_t dop = di == 0 ? 1 : 4;
      double ms = BestOf(reps, [&] {
        pctagg::Stopwatch timer;
        Table r = RunQuery(db, q, dop, /*forced=*/false);
        return timer.ElapsedMillis();
      });
      std::fprintf(stderr, "[query] %s dop=%zu: %.2f ms\n", q.name, dop, ms);
      query_json += StrFormat("%.3f%s", ms, di == 1 ? "" : ", ");
    }
    query_json += StrFormat(
        "]}%s\n", qi + 1 == sizeof(kQueries) / sizeof(kQueries[0]) ? "" : ",");
  }

  // --- Correctness: quantized data, bit-for-bit CSV.
  std::fprintf(stderr, "[check] building quantized tables...\n");
  PctDatabase qnamed_db, qint_db;
  if (!qnamed_db.CreateTable("sales", Quantized(sales)).ok() ||
      !qint_db.CreateTable("sales", Quantized(pctagg::GenerateSales(rows)))
           .ok()) {
    std::fprintf(stderr, "quantized table setup failed\n");
    return 1;
  }
  bool cross_dop_ok = true;
  bool encoded_vs_unencoded_ok = true;
  for (const BenchQuery& q : kQueries) {
    const std::string csv1 =
        pctagg::FormatCsv(RunQuery(qnamed_db, q, 1, /*forced=*/true));
    const std::string csv4 =
        pctagg::FormatCsv(RunQuery(qnamed_db, q, 4, /*forced=*/true));
    if (csv1 != csv4) {
      std::fprintf(stderr, "[check] FAIL: %s differs between dop 1 and 4\n",
                   q.name);
      cross_dop_ok = false;
    }
    for (size_t dop : {size_t{1}, size_t{4}}) {
      const std::string enc = NumericCsv(
          RunQuery(qnamed_db, q, dop, /*forced=*/true), q.key_cols);
      const std::string unenc = NumericCsv(
          RunQuery(qint_db, q, dop, /*forced=*/true), q.key_cols);
      if (enc != unenc) {
        std::fprintf(stderr,
                     "[check] FAIL: %s dop=%zu string-keyed vs integer-keyed "
                     "numeric results differ\n",
                     q.name, dop);
        // Print the first differing line of each side for diagnosis.
        size_t line = 1, a = 0, b = 0;
        while (a < enc.size() && b < unenc.size()) {
          size_t ae = enc.find('\n', a), be = unenc.find('\n', b);
          std::string la = enc.substr(a, ae - a);
          std::string lb = unenc.substr(b, be - b);
          if (la != lb) {
            std::fprintf(stderr, "  line %zu:\n    string-keyed:  %s\n"
                         "    integer-keyed: %s\n", line, la.c_str(),
                         lb.c_str());
            break;
          }
          if (ae == std::string::npos || be == std::string::npos) break;
          a = ae + 1;
          b = be + 1;
          ++line;
        }
        encoded_vs_unencoded_ok = false;
      }
    }
  }
  std::fprintf(stderr, "[check] cross-dop identical: %s\n",
               cross_dop_ok ? "yes" : "NO");
  std::fprintf(stderr, "[check] encoded vs unencoded identical: %s\n",
               encoded_vs_unencoded_ok ? "yes" : "NO");

  std::string json = StrFormat(
      "{\n"
      "  \"benchmark\": \"dictionary\",\n"
      "  \"rows\": %zu,\n"
      "  \"num_cores\": %zu,\n"
      "  \"repetitions\": %zu,\n"
      "  \"aggregate\": %s,\n"
      "  \"direct_dict\": %s,\n"
      "  \"queries\": [\n%s  ],\n"
      "  \"checks\": {\n"
      "    \"cross_dop_csv_identical\": %s,\n"
      "    \"encoded_vs_unencoded_identical\": %s\n"
      "  }\n"
      "}\n",
      rows, num_cores, reps, agg_json.c_str(), direct_json.c_str(),
      query_json.c_str(), cross_dop_ok ? "true" : "false",
      encoded_vs_unencoded_ok ? "true" : "false");

  std::fputs(json.c_str(), stdout);
  FILE* f = std::fopen("BENCH_dictionary.json", "w");
  if (f != nullptr) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::fprintf(stderr, "[bench] wrote BENCH_dictionary.json\n");
  }
  if (!cross_dop_ok || !encoded_vs_unencoded_ok) return 1;
  if (!smoke && packed_speedup < 2.0) {
    std::fprintf(stderr,
                 "FAIL: dop=1 speedup %.2fx is under the 2x acceptance bar\n",
                 packed_speedup);
    return 1;
  }
  return 0;
}
