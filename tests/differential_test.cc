// Cross-path differential test: seeded random percentage queries, each run
// through every evaluation path that applies to it and compared against the
// materialized reference plan (dop 1, summary cache off).
//
// Generated shapes: group-by subsets (including none), multi-term Vpct with
// BY subsets and grand totals, Hpct/Hagg (with DEFAULT 0) plus extra vertical
// aggregates, plain vertical aggregates, expression arguments (sum(a * 2),
// Vpct(1)), HAVING/ORDER BY/LIMIT tails, seeded WHERE clauses (INT64 and
// FLOAT64 ranges, dictionary-string comparisons with absent literals, IS
// [NOT] NULL, INT64 beyond 2^53, literals on either side, AND/OR/NOT nesting)
// that keep everything, some rows or nothing, NULL group keys, a
// dictionary-encoded string key, NULL measures and groups whose INT64
// measure sums to zero (division by zero -> NULL, PAPER.md §1).
//
// Paths: the three materialized Vpct strategies and the OLAP-window
// baseline; the four CASE/SPJ horizontal methods; the partial-summary core
// (SET exec fused) at dop 1 and 4; the query rewritten as a one-set
// GROUPING SETS; the core answering from a cached ancestor; a shared-scan
// MQO batch (ExecuteMqoBatch); a 2-way sharded cluster; and the core after a
// delta-merged AppendRows.
//
// Results compare as row multisets (sharded merges and some strategies emit
// rows in another order; Hpct pivot columns are matched by name), or row by
// row when an ORDER BY over every grouping column fixes the order. INT64
// measures must be bit-identical everywhere. A FLOAT64 measure x >= 0 may
// differ only by summation order: two orders of a sum of m non-negative
// doubles differ by at most 2(m-1) ulp, a quotient of two such sums by at
// most 4(m-1)+1 ulp, so cells of float-measure queries must agree within
// 4·n+1 ulp for an n-row table.
//
// The ctest run covers kDefaultCases seeded cases. PCTAGG_DIFF_SOAK=<cases>
// runs that many cases of the same seed sequence instead: a longer soak, or
// the shorter run of the TSan target.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/database.h"
#include "core/lattice_plan.h"
#include "core/mqo_plan.h"
#include "dist/coordinator.h"
#include "server/server.h"

namespace pctagg {
namespace {

constexpr uint64_t kSeed = 20041001;
constexpr size_t kBaseRows = 2000;
constexpr size_t kDeltaRows = 400;
constexpr size_t kRows = kBaseRows + kDeltaRows;
constexpr size_t kDefaultCases = 200;

const std::vector<std::string> kDims = {"d1", "d2", "d3", "s"};

// d1(4) x d2(5, ~10% NULL) x d3(3) x s (6 dictionary strings, ~8% NULL);
// a INT64 in [1,100] (~8% NULL), z INT64 in [-3,3] (small groups sum to
// zero), x FLOAT64 in [0,100) (0 on d1 = 0, ~5% NULL), b INT64 in
// [2^53, 2^53 + 3] (~10% NULL; only WHERE clauses read it).
Table Fact() {
  Rng rng(kSeed);
  Table t(Schema({{"d1", DataType::kInt64},
                  {"d2", DataType::kInt64},
                  {"d3", DataType::kInt64},
                  {"s", DataType::kString},
                  {"a", DataType::kInt64},
                  {"z", DataType::kInt64},
                  {"x", DataType::kFloat64},
                  {"b", DataType::kInt64}}));
  Rng big_rng(kSeed + 53);  // own stream: the other columns are unchanged
  for (size_t i = 0; i < kRows; ++i) {
    const int64_t d1 = static_cast<int64_t>(rng.Uniform(4));
    Value d2 = rng.Uniform(10) == 0
                   ? Value::Null()
                   : Value::Int64(static_cast<int64_t>(rng.Uniform(5)));
    static const char* kCities[] = {"c0", "c1", "c2", "c3", "c4", "c5"};
    Value s = rng.Uniform(12) == 0 ? Value::Null()
                                   : Value::String(kCities[rng.Uniform(6)]);
    Value a = rng.Uniform(12) == 0
                  ? Value::Null()
                  : Value::Int64(static_cast<int64_t>(rng.Uniform(100)) + 1);
    Value x = rng.Uniform(20) == 0 ? Value::Null()
              : d1 == 0            ? Value::Float64(0.0)
                                   : Value::Float64(rng.NextDouble() * 100.0);
    Value b = big_rng.Uniform(10) == 0
                  ? Value::Null()
                  : Value::Int64((int64_t{1} << 53) +
                                 static_cast<int64_t>(big_rng.Uniform(4)));
    t.AppendRow({Value::Int64(d1), d2,
                 Value::Int64(static_cast<int64_t>(rng.Uniform(3))), s, a,
                 Value::Int64(rng.UniformRange(-3, 3)), x, b});
  }
  return t;
}

Table Rows(const Table& full, size_t begin, size_t end) {
  Table out(full.schema());
  for (size_t i = begin; i < end; ++i) out.AppendRow(full.GetRow(i));
  return out;
}

enum class Shape { kVpct, kHorizontal, kVertical };

struct Case {
  Shape shape = Shape::kVertical;
  std::string sql;       // plain GROUP BY form
  std::string sets_sql;  // the same query as a one-set GROUPING SETS
  std::string where;     // rendered WHERE clause, "" when none
  bool float_measure = false;
  // ORDER BY covers every grouping column, so the row order is determined
  // and every path must return it.
  bool ordered = false;
};

std::vector<std::string> PickDims(Rng* rng,
                                  const std::vector<std::string>& from,
                                  size_t lo, size_t hi) {
  std::vector<std::string> pool = from;
  const size_t k = lo + rng->Uniform(hi - lo + 1);
  std::vector<std::string> out;
  while (out.size() < k && !pool.empty()) {
    const size_t i = rng->Uniform(pool.size());
    out.push_back(pool[i]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(i));
  }
  return out;
}

std::string Extra(Rng* rng, const std::string& measure) {
  switch (rng->Uniform(6)) {
    case 0:
      return "sum(" + measure + ")";
    case 1:
      return "count(" + measure + ")";
    case 2:
      return "count(*)";
    case 3:
      return "min(" + measure + ")";
    case 4:
      return "max(" + measure + ")";
    default:
      return "avg(" + measure + ")";
  }
}

std::string RandomCmpOp(Rng* rng, bool ordering_only = false) {
  static const char* kOps[] = {"<", "<=", ">", ">=", "=", "<>"};
  return kOps[rng->Uniform(ordering_only ? 4 : 6)];
}

// `col op literal`, with the literal on the left half of the time.
std::string Comparison(Rng* rng, const std::string& col, const std::string& op,
                       const std::string& literal) {
  if (rng->Uniform(2) == 0) return col + " " + op + " " + literal;
  static const std::vector<std::pair<std::string, std::string>> kMirror = {
      {"<", ">"}, {"<=", ">="}, {">", "<"}, {">=", "<="}, {"=", "="},
      {"<>", "<>"}};
  for (const auto& [from, to] : kMirror) {
    if (from == op) return literal + " " + to + " " + col;
  }
  return col + " " + op + " " + literal;
}

// One WHERE leaf: INT64 and FLOAT64 ranges, dictionary-string comparisons
// (literals present in and absent from the dictionary), IS [NOT] NULL on the
// NULL-bearing columns, and INT64 values beyond 2^53 on b.
std::string RandomLeaf(Rng* rng) {
  switch (rng->Uniform(7)) {
    case 0: {  // INT64 dimension, values just outside the domain included
      static const char* kCols[] = {"d1", "d2", "d3", "z"};
      const std::string col = kCols[rng->Uniform(4)];
      return Comparison(rng, col, RandomCmpOp(rng),
                        std::to_string(rng->UniformRange(-4, 5)));
    }
    case 1: {  // INT64 measure range
      const int64_t lo = rng->UniformRange(0, 90);
      if (rng->Uniform(2) == 0) {
        return "(a >= " + std::to_string(lo) + " AND a < " +
               std::to_string(lo + 1 + rng->Uniform(40)) + ")";
      }
      return Comparison(rng, "a", RandomCmpOp(rng), std::to_string(lo));
    }
    case 2: {  // FLOAT64 range
      const std::string lit =
          std::to_string(rng->UniformRange(0, 99)) + "." +
          std::to_string(rng->Uniform(10));
      return Comparison(rng, "x", RandomCmpOp(rng), lit);
    }
    case 3: {  // dictionary string
      static const char* kLits[] = {"'c0'", "'c2'", "'c5'", "'c9'", "'b'",
                                    "'zz'"};
      static const char* kOps[] = {"=", "<>", "<", ">="};
      return Comparison(rng, "s", kOps[rng->Uniform(4)],
                        kLits[rng->Uniform(6)]);
    }
    case 4: {  // NULLs in filter columns
      static const char* kCols[] = {"d2", "s", "a", "x", "b"};
      return std::string(kCols[rng->Uniform(5)]) +
             (rng->Uniform(2) == 0 ? " IS NULL" : " IS NOT NULL");
    }
    default: {  // INT64 beyond 2^53, where doubles merge neighbours
      const int64_t v =
          (int64_t{1} << 53) + static_cast<int64_t>(rng->Uniform(4));
      return Comparison(rng, "b", RandomCmpOp(rng), std::to_string(v));
    }
  }
}

// A seeded WHERE clause: leaves nested under AND, OR and NOT.
std::string RandomWhere(Rng* rng, int depth) {
  if (depth == 0 || rng->Uniform(3) == 0) return RandomLeaf(rng);
  switch (rng->Uniform(3)) {
    case 0:
      return "(" + RandomWhere(rng, depth - 1) + " AND " +
             RandomWhere(rng, depth - 1) + ")";
    case 1:
      return "(" + RandomWhere(rng, depth - 1) + " OR " +
             RandomWhere(rng, depth - 1) + ")";
    default:
      return "NOT (" + RandomWhere(rng, depth - 1) + ")";
  }
}

// A query tail over the result: HAVING on a grouping column, ORDER BY every
// grouping column in mixed directions, and LIMIT only under that total
// order (otherwise the kept rows would depend on each path's row order).
std::string RandomTail(Rng* rng, const std::vector<std::string>& group_by,
                       bool* ordered) {
  std::string tail;
  if (group_by.empty()) return tail;
  if (rng->Uniform(3) == 0) {
    const std::string col = group_by[rng->Uniform(group_by.size())];
    if (rng->Uniform(4) == 0) {
      tail += " HAVING " + col + " IS NOT NULL";
    } else if (col == "s") {
      tail += std::string(" HAVING s ") + (rng->Uniform(2) ? "<>" : ">=") +
              " 'c2'";
    } else {
      tail += " HAVING " + col + " " + RandomCmpOp(rng) + " " +
              std::to_string(rng->Uniform(4));
    }
  }
  if (rng->Uniform(2) == 0) {
    std::vector<std::string> keys;
    for (const std::string& g : PickDims(rng, group_by, group_by.size(),
                                         group_by.size())) {
      keys.push_back(g + (rng->Uniform(2) ? " DESC" : ""));
    }
    tail += " ORDER BY " + Join(keys, ", ");
    *ordered = true;
    if (rng->Uniform(2) == 0) {
      static const int kLimits[] = {0, 1, 3, 50};
      tail += " LIMIT " + std::to_string(kLimits[rng->Uniform(4)]);
    }
  }
  return tail;
}

Case Generate(uint64_t seed) {
  Rng rng(seed);
  // Expression arguments and query tails draw from their own stream, so the
  // rest of each case is the same as without them.
  Rng ext(seed ^ 0x7a11u);
  Case c;
  c.shape = static_cast<Shape>(rng.Uniform(3));
  c.float_measure = rng.Uniform(4) == 0;
  // Sometimes an expression: sum(a * 2), Vpct(1), avg(x * 2), ...
  auto measure = [&] {
    std::string m =
        c.float_measure ? "x" : std::string(rng.Uniform(2) ? "a" : "z");
    switch (ext.Uniform(6)) {
      case 0:
        return m + " * 2";
      case 1:
        return c.float_measure ? m + " + 1" : std::string("1");
      default:
        return m;
    }
  };
  std::vector<std::string> group_by;
  std::vector<std::string> terms;
  size_t alias = 0;
  auto add = [&](const std::string& term) {
    terms.push_back(term + " AS t" + std::to_string(alias++));
  };
  switch (c.shape) {
    case Shape::kVpct: {
      group_by = PickDims(&rng, kDims, 1, 3);
      const size_t vpct_terms = 1 + rng.Uniform(3);
      for (size_t i = 0; i < vpct_terms; ++i) {
        std::vector<std::string> by =
            PickDims(&rng, group_by, 0, group_by.size());
        add("Vpct(" + measure() + (by.empty() ? "" : " BY " + Join(by, ", ")) +
            ")");
      }
      break;
    }
    case Shape::kHorizontal: {
      group_by = PickDims(&rng, kDims, 0, 2);
      std::vector<std::string> rest;
      for (const std::string& d : kDims) {
        if (std::find(group_by.begin(), group_by.end(), d) == group_by.end()) {
          rest.push_back(d);
        }
      }
      const std::vector<std::string> by = PickDims(&rng, rest, 1, 2);
      static const char* kFuncs[] = {"Hpct", "sum", "count", "min", "max"};
      const std::string func = kFuncs[rng.Uniform(5)];
      const bool with_default = func != "Hpct" && rng.Uniform(2) == 0;
      terms.push_back(func + "(" + measure() + " BY " + Join(by, ", ") +
                      (with_default ? " DEFAULT 0" : "") + ")");
      break;
    }
    case Shape::kVertical:
      group_by = PickDims(&rng, kDims, 0, 3);
      add(Extra(&rng, measure()));
      break;
  }
  const size_t extras = rng.Uniform(3);
  for (size_t i = 0; i < extras; ++i) add(Extra(&rng, measure()));
  if (rng.Uniform(4) != 0) c.where = RandomWhere(&rng, 3);
  std::vector<std::string> select = group_by;
  select.insert(select.end(), terms.begin(), terms.end());
  std::string head = "SELECT " + Join(select, ", ") + " FROM f";
  if (!c.where.empty()) head += " WHERE " + c.where;
  const std::string tail = RandomTail(&ext, group_by, &c.ordered);
  c.sql = head;
  if (!group_by.empty()) c.sql += " GROUP BY " + Join(group_by, ", ");
  c.sql += tail;
  c.sets_sql = head + " GROUP BY GROUPING SETS((" + Join(group_by, ", ") +
               "))" + tail;
  return c;
}

uint64_t OrderedBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  // Map the sign-magnitude encoding onto a monotonic unsigned scale.
  return (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
}

uint64_t UlpDistance(double a, double b) {
  const uint64_t x = OrderedBits(a);
  const uint64_t y = OrderedBits(b);
  return x > y ? x - y : y - x;
}

// Rows in a canonical order: by the rendering of their non-FLOAT64 cells
// (grouping keys, GROUPING ids, integer aggregates), in `cols` order.
std::vector<size_t> CanonicalOrder(const Table& t,
                                   const std::vector<size_t>& cols) {
  std::vector<std::string> keys(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c : cols) {
      if (t.schema().column(c).type == DataType::kFloat64) continue;
      keys[r] += t.column(c).GetValue(r).ToString() + "\x1f";
    }
  }
  std::vector<size_t> order(t.num_rows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&keys](size_t a, size_t b) { return keys[a] < keys[b]; });
  return order;
}

::testing::AssertionResult SameResult(const Table& got, const Table& want,
                                      uint64_t ulps, bool ordered) {
  if (got.num_columns() != want.num_columns()) {
    return ::testing::AssertionFailure()
           << "column count " << got.num_columns() << " vs "
           << want.num_columns();
  }
  std::vector<size_t> got_cols;
  std::vector<size_t> want_cols;
  for (size_t c = 0; c < want.num_columns(); ++c) {
    const ColumnDef& def = want.schema().column(c);
    Result<size_t> gc = got.schema().FindColumn(def.name);
    if (!gc.ok()) {
      return ::testing::AssertionFailure() << "column " << def.name
                                           << " missing";
    }
    if (got.schema().column(*gc).type != def.type) {
      return ::testing::AssertionFailure()
             << "column " << def.name << " is "
             << DataTypeName(got.schema().column(*gc).type) << ", want "
             << DataTypeName(def.type);
    }
    got_cols.push_back(*gc);
    want_cols.push_back(c);
  }
  if (got.num_rows() != want.num_rows()) {
    return ::testing::AssertionFailure()
           << "row count " << got.num_rows() << " vs " << want.num_rows();
  }
  std::vector<size_t> go(got.num_rows());
  std::vector<size_t> wo(want.num_rows());
  for (size_t i = 0; i < wo.size(); ++i) go[i] = wo[i] = i;
  if (!ordered) {
    go = CanonicalOrder(got, got_cols);
    wo = CanonicalOrder(want, want_cols);
  }
  for (size_t i = 0; i < wo.size(); ++i) {
    for (size_t k = 0; k < want_cols.size(); ++k) {
      const Value g = got.column(got_cols[k]).GetValue(go[i]);
      const Value w = want.column(want_cols[k]).GetValue(wo[i]);
      const std::string& name = want.schema().column(want_cols[k]).name;
      if (g.is_null() != w.is_null()) {
        return ::testing::AssertionFailure()
               << "NULL mismatch in " << name << ": " << g.ToString()
               << " vs " << w.ToString();
      }
      if (g.is_null()) continue;
      if (w.is_float64()) {
        const uint64_t d = UlpDistance(g.AsDouble(), w.AsDouble());
        if (d > ulps) {
          return ::testing::AssertionFailure()
                 << name << ": " << g.ToString() << " vs " << w.ToString()
                 << " (" << d << " ulp, bound " << ulps << ")";
        }
      } else if (g.ToString() != w.ToString()) {
        return ::testing::AssertionFailure()
               << name << ": " << g.ToString() << " vs " << w.ToString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// Whether the trace shows a plan step answered from the summary cache.
bool TraceHasCacheHit(const obs::QueryTrace& trace) {
  for (const auto& node : trace.root().children) {
    if (node->stats.cache_hit) return true;
  }
  return false;
}

// Two worker servers on loopback ephemeral ports behind a coordinator that
// holds the sharded copy of the fact table.
class Cluster {
 public:
  Cluster() {
    std::vector<dist::WorkerEndpoint> endpoints;
    for (size_t i = 0; i < 2; ++i) {
      worker_dbs_.push_back(std::make_unique<PctDatabase>());
      ServerConfig config;
      config.port = 0;
      config.worker_threads = 2;
      workers_.push_back(
          std::make_unique<PctServer>(worker_dbs_.back().get(), config));
      Status st = workers_.back()->Start();
      EXPECT_TRUE(st.ok()) << st.ToString();
      endpoints.push_back({"127.0.0.1", workers_.back()->port()});
    }
    dist::CoordinatorConfig config;
    config.shard_timeout_ms = 10000;
    coordinator_ = std::make_unique<dist::Coordinator>(&db_, endpoints, config);
  }

  Status Load(Table fact) {
    PCTAGG_RETURN_IF_ERROR(db_.CreateTable("f", std::move(fact)));
    return coordinator_->ShardTable("f", "d1");
  }

  Result<Table> Query(const std::string& sql) {
    QueryOptions options;
    options.mqo = MqoMode::kOff;
    PCTAGG_ASSIGN_OR_RETURN(std::optional<Table> r,
                            coordinator_->MaybeExecute(sql, options, nullptr));
    if (!r.has_value()) return Status::Internal("router declined: " + sql);
    return std::move(*r);
  }

 private:
  PctDatabase db_;
  std::vector<std::unique_ptr<PctDatabase>> worker_dbs_;
  std::vector<std::unique_ptr<PctServer>> workers_;
  std::unique_ptr<dist::Coordinator> coordinator_;
};

class DifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    full_ = new Table(Fact());
    cluster_ = new Cluster();
    Status st = cluster_->Load(*full_);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  static void TearDownTestSuite() {
    delete cluster_;
    delete full_;
    cluster_ = nullptr;
    full_ = nullptr;
  }

  // Runs one generated case through every applicable path.
  void RunCase(uint64_t seed) {
    const Case c = Generate(seed);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + c.sql);
    const uint64_t ulps = c.float_measure ? 4 * kRows + 1 : 0;

    PctDatabase ref;
    ASSERT_TRUE(ref.CreateTable("f", *full_).ok());
    QueryOptions mat;
    mat.execution = ExecutionMode::kMaterialized;
    Result<Table> want = ref.Query(c.sql, mat);
    ASSERT_TRUE(want.ok()) << want.status().ToString();

    auto check = [&](const std::string& path, const Result<Table>& got) {
      if (!got.ok()) {
        ADD_FAILURE() << path << ": " << got.status().ToString();
        return;
      }
      EXPECT_TRUE(SameResult(*got, *want, ulps, c.ordered)) << path;
    };

    // The paper's materialized strategies and the OLAP baseline.
    if (c.shape == Shape::kVpct) {
      const VpctStrategy best;
      VpctStrategy from_f;
      from_f.fj_from_fk = false;
      VpctStrategy update;
      update.insert_result = false;
      for (const VpctStrategy& s : {best, from_f, update}) {
        QueryOptions o;
        o.vpct_strategy = s;
        check("vpct strategy fj_from_fk=" + std::to_string(s.fj_from_fk) +
                  " insert=" + std::to_string(s.insert_result),
              ref.Query(c.sql, o));
      }
      QueryOptions olap;
      olap.olap_baseline = true;
      check("OLAP baseline", ref.Query(c.sql, olap));
    }
    if (c.shape == Shape::kHorizontal) {
      for (HorizontalMethod m :
           {HorizontalMethod::kCaseDirect, HorizontalMethod::kCaseFromFV,
            HorizontalMethod::kSpjDirect, HorizontalMethod::kSpjFromFV}) {
        QueryOptions o;
        o.horizontal_strategy = HorizontalStrategy{};
        o.horizontal_strategy->method = m;
        check(std::string("horizontal ") + HorizontalMethodName(m),
              ref.Query(c.sql, o));
      }
    }

    // The partial-summary core, forced.
    for (size_t dop : {size_t{1}, size_t{4}}) {
      obs::QueryTrace trace;
      QueryOptions core;
      core.execution = ExecutionMode::kFused;
      core.degree_of_parallelism = dop;
      core.trace = &trace;
      check("core dop " + std::to_string(dop), ref.Query(c.sql, core));
      EXPECT_EQ(trace.strategy, "fused-pipeline");
    }
    check("one-set GROUPING SETS", ref.Query(c.sets_sql));

    // The core's finest level from each non-scan source.
    Result<AnalyzedQuery> query = ref.PrepareQuery(c.sql);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    Result<DistPartialPlan> dp = BuildDistributedPartialPlan(*query);
    ASSERT_TRUE(dp.ok()) << dp.status().ToString();
    std::vector<std::string> finer = dp->finest_cols;
    for (const std::string& d : kDims) {
      if (std::find(finer.begin(), finer.end(), d) == finer.end()) {
        finer.push_back(d);
        break;
      }
    }
    std::vector<std::string> partials;
    for (const AggSpec& p : dp->partials) {
      partials.push_back(std::string(AggFuncName(p.func)) + "(" +
                         (p.func == AggFunc::kCountStar ? "*"
                                                        : p.input->ToString()) +
                         ")");
    }
    const std::string where = c.where.empty() ? "" : " WHERE " + c.where;
    // A finer-grained companion carrying every partial the case needs.
    std::vector<std::string> companion_select = finer;
    companion_select.insert(companion_select.end(), partials.begin(),
                            partials.end());
    const std::string companion = "SELECT " + Join(companion_select, ", ") +
                                  " FROM f" + where + " GROUP BY " +
                                  Join(finer, ", ");

    if (c.where.empty()) {
      PctDatabase cached;
      cached.EnableSummaryCache(true);
      ASSERT_TRUE(cached.CreateTable("f", *full_).ok());
      ASSERT_TRUE(cached.Query(companion).ok()) << companion;
      obs::QueryTrace trace;
      QueryOptions core;
      core.execution = ExecutionMode::kFused;
      core.trace = &trace;
      check("cache ancestor", cached.Query(c.sql, core));
      EXPECT_TRUE(TraceHasCacheHit(trace)) << companion;
    }

    {
      Result<AnalyzedQuery> mate = ref.PrepareQuery(companion);
      ASSERT_TRUE(mate.ok()) << mate.status().ToString();
      Result<MqoBatchPlan> plan = PlanMqoBatch({&*query, &*mate});
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      Result<std::vector<Table>> batch =
          ExecuteMqoBatch(*plan, *full_, nullptr, {}, 1);
      if (!batch.ok()) {
        ADD_FAILURE() << "mqo batch: " << batch.status().ToString();
      } else {
        check("mqo batch", (*batch)[0]);
      }
    }

    check("2-way shard", cluster_->Query(c.sql));

    {
      PctDatabase appended;
      appended.EnableSummaryCache(true);
      ASSERT_TRUE(
          appended.CreateTable("f", Rows(*full_, 0, kBaseRows)).ok());
      QueryOptions core;
      core.execution = ExecutionMode::kFused;
      ASSERT_TRUE(appended.Query(c.sql, core).ok());
      QueryOptions merge;
      merge.append_policy = AppendPolicy::kMerge;
      ASSERT_TRUE(
          appended.AppendRows("f", Rows(*full_, kBaseRows, kRows), merge).ok());
      check("delta merge after append", appended.Query(c.sql, core));
    }
  }

  static Table* full_;
  static Cluster* cluster_;
};

Table* DifferentialTest::full_ = nullptr;
Cluster* DifferentialTest::cluster_ = nullptr;

TEST_F(DifferentialTest, SeededQueriesAgreeAcrossAllPaths) {
  size_t cases = kDefaultCases;
  if (const char* soak = std::getenv("PCTAGG_DIFF_SOAK")) {
    cases = static_cast<size_t>(std::strtoull(soak, nullptr, 10));
  }
  for (size_t i = 0; i < cases; ++i) {
    RunCase(kSeed + i);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace pctagg
