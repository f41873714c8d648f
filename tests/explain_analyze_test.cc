// Tests for EXPLAIN ANALYZE: statement-kind parsing, the rendered trace for
// one Vpct and one Hpct strategy on the paper's sales example (golden,
// numbers normalized), and the predicted-vs-actual cost-model fields.

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "core/advisor.h"
#include "core/database.h"
#include "obs/trace.h"
#include "sql/parser.h"
#include "workload/generators.h"

namespace pctagg {
namespace {

constexpr char kVpctSql[] =
    "SELECT state, Vpct(salesAmt BY state) FROM sales GROUP BY state";
constexpr char kHpctSql[] =
    "SELECT state, Hpct(salesAmt BY dweek) FROM sales GROUP BY state";

// Replaces every number (ints, decimals, counter suffixes) with '#' so the
// golden comparison pins the structure — node labels, stat fields, strategy
// names — without depending on timings or exact sizes.
std::string Normalize(const std::string& s) {
  std::string out;
  bool in_number = false;
  for (char c : s) {
    bool numeric =
        std::isdigit(static_cast<unsigned char>(c)) || (in_number && c == '.');
    if (numeric) {
      if (!in_number) out.push_back('#');
      in_number = true;
    } else {
      in_number = false;
      out.push_back(c);
    }
  }
  return out;
}

class ExplainAnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable("sales", GenerateSales(400)).ok());
  }
  PctDatabase db_;
};

// --- Statement-kind parsing -------------------------------------------------

TEST(ParseStatementKindTest, RecognizesExplainAndAnalyze) {
  Result<ParsedStatement> plain = ParseStatementKind("SELECT a FROM f");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->explain);
  EXPECT_FALSE(plain->analyze);
  EXPECT_EQ(plain->select_sql, "SELECT a FROM f");

  Result<ParsedStatement> explain =
      ParseStatementKind("EXPLAIN SELECT a FROM f");
  ASSERT_TRUE(explain.ok());
  EXPECT_TRUE(explain->explain);
  EXPECT_FALSE(explain->analyze);
  EXPECT_EQ(explain->select_sql, "SELECT a FROM f");

  Result<ParsedStatement> analyze =
      ParseStatementKind("explain analyze SELECT a FROM f");
  ASSERT_TRUE(analyze.ok());
  EXPECT_TRUE(analyze->explain);
  EXPECT_TRUE(analyze->analyze);
  EXPECT_EQ(analyze->select_sql, "SELECT a FROM f");
}

TEST(ParseStatementKindTest, BareExplainIsAnError) {
  EXPECT_FALSE(ParseStatementKind("EXPLAIN").ok());
  EXPECT_FALSE(ParseStatementKind("EXPLAIN ANALYZE").ok());
}

// --- Golden renders (numbers normalized) ------------------------------------

TEST_F(ExplainAnalyzeTest, VpctGoldenRender) {
  QueryOptions options;
  options.vpct_strategy = VpctStrategy{};  // the paper's best: Fj-from-Fk+INSERT
  Result<std::string> rendered = db_.ExplainAnalyze(kVpctSql, options);
  ASSERT_TRUE(rendered.ok()) << rendered.status().ToString();
  EXPECT_EQ(Normalize(*rendered), std::string(
R"(query class: vertical-percentage
strategy: Fj-from-Fk+INSERT+lattice (forced)
cost model: Fj-from-Fk+INSERT=#* Fj-from-F+INSERT=# Fj-from-Fk+UPDATE=# OLAP-window=#  (*=chosen, abstract row-op units)
predicted group rows: #  actual: #
actual row ops: #
total: # ms
plan:
  insert: INSERT INTO Fk_# SELECT state, sum(salesAmt) AS __psum_# FROM sales GROUP BY state
    [wall=#ms cpu=#ms]
    aggregate: keys=inline(#x#B)
      [rows_in=# rows_out=# morsels=# workers=# hash_groups=# hash_slots=# load=# wall=#ms cpu=#ms]
  insert: INSERT INTO Fj_# SELECT sum(__psum_#) AS __ptot_# FROM Fk_#
    [wall=#ms cpu=#ms]
    aggregate: keys=inline(#x#B)
      [rows_in=# rows_out=# morsels=# workers=# hash_groups=# hash_slots=# load=# wall=#ms cpu=#ms]
  insert: INSERT INTO FV_# SELECT state, CASE WHEN Fj.__ptot_# <> # THEN Fk.__psum_# / Fj.__ptot_# ELSE NULL END AS vpct_salesAmt FROM Fk_# Fk CROSS JOIN Fj_# Fj
    [wall=#ms cpu=#ms]
)"));
}

TEST_F(ExplainAnalyzeTest, HpctGoldenRender) {
  QueryOptions options;
  HorizontalStrategy h;
  h.method = HorizontalMethod::kCaseDirect;
  options.horizontal_strategy = h;
  Result<std::string> rendered = db_.ExplainAnalyze(kHpctSql, options);
  ASSERT_TRUE(rendered.ok()) << rendered.status().ToString();
  EXPECT_EQ(Normalize(*rendered), std::string(
R"(query class: horizontal
strategy: CASE-from-F+hash-dispatch (forced)
cost model: CASE-from-F=#* CASE-from-FV=# SPJ-from-F=# SPJ-from-FV=#  (*=chosen, abstract row-op units)
predicted group rows: #  actual: #
actual row ops: #
total: # ms
plan:
  insert: INSERT INTO FH_# SELECT state, sum(CASE WHEN dweek = v_#v_N THEN salesAmt ELSE # END) / sum(salesAmt), ...xN FROM sales GROUP BY state
    [wall=#ms cpu=#ms]
    pivot: combos=#
      [rows_in=# rows_out=# morsels=# workers=# hash_groups=# hash_slots=# load=# wall=#ms cpu=#ms]
  statement: /* FH = FH_# */
    [wall=#ms cpu=#ms]
)"));
}

// --- Predicted vs actual ----------------------------------------------------

TEST_F(ExplainAnalyzeTest, VpctTracePopulatesPredictedVsActual) {
  obs::QueryTrace trace;
  QueryOptions options;
  options.trace = &trace;
  Result<Table> result = db_.Query(kVpctSql, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(trace.query_class, "vertical-percentage");
  EXPECT_EQ(trace.strategy_source, "advisor");
  EXPECT_NE(trace.strategy.find("Fj-from-"), std::string::npos);
  // Candidates were costed and exactly one is marked chosen.
  ASSERT_GE(trace.predicted_costs.size(), 2u);
  int chosen = 0;
  for (const auto& c : trace.predicted_costs) {
    EXPECT_GT(c.cost, 0.0);
    if (c.chosen) ++chosen;
  }
  EXPECT_EQ(chosen, 1);
  // The cost model predicted |Fk| and the finest aggregate reported it.
  EXPECT_GT(trace.predicted_group_rows, 0.0);
  EXPECT_DOUBLE_EQ(trace.actual_group_rows,
                   static_cast<double>(result->num_rows()));
  EXPECT_GT(trace.ActualRowOps(), 0u);
  // The executed plan has statement nodes with operator children.
  EXPECT_FALSE(trace.root().children.empty());
}

TEST_F(ExplainAnalyzeTest, HpctTracePopulatesPredictedVsActual) {
  obs::QueryTrace trace;
  QueryOptions options;
  options.trace = &trace;
  Result<Table> result = db_.Query(kHpctSql, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(trace.query_class, "horizontal");
  ASSERT_EQ(trace.predicted_costs.size(), 5u);  // CASE/SPJ x F/FV + fused
  int chosen = 0;
  for (const auto& c : trace.predicted_costs) {
    if (c.chosen) ++chosen;
  }
  EXPECT_EQ(chosen, 1);
  EXPECT_GT(trace.predicted_group_rows, 0.0);
  EXPECT_DOUBLE_EQ(trace.actual_group_rows,
                   static_cast<double>(result->num_rows()));
}

// --- The filter node ---------------------------------------------------------

// The first node labelled `label`, depth first.
const obs::TraceNode* FindNode(const obs::TraceNode& node,
                               const std::string& label) {
  if (node.label == label) return &node;
  for (const auto& child : node.children) {
    if (const obs::TraceNode* hit = FindNode(*child, label)) return hit;
  }
  return nullptr;
}

// Children run one after another inside their parent's scope, so their
// wall times never add up to more than the parent's.
void ExpectChildrenFitInParent(const obs::TraceNode& node) {
  double children_ms = 0;
  for (const auto& child : node.children) {
    children_ms += child->stats.wall_ms;
    ExpectChildrenFitInParent(*child);
  }
  if (node.stats.wall_ms > 0) {
    EXPECT_LE(children_ms, node.stats.wall_ms + 1e-6) << node.label;
  }
}

TEST_F(ExplainAnalyzeTest, FilterNodeNamesTheEvaluatorThatRan) {
  struct Case {
    std::string where;
    std::string evaluator;
  };
  const std::vector<Case> cases = {
      {"dweek = 'Sat' OR dweek = 'Sun'", "mask kernel"},
      {"salesAmt * 2 > 10", "generic fallback"},
  };
  ASSERT_TRUE(db_.CreateTable("sales_named", GenerateSalesNamed(400)).ok());
  for (const Case& c : cases) {
    Result<Table> kept =
        db_.Query("SELECT count(*) AS n FROM sales_named WHERE " + c.where);
    ASSERT_TRUE(kept.ok()) << kept.status().ToString();
    const int64_t want_rows = kept->column(0).Int64At(0);
    for (ExecutionMode exec :
         {ExecutionMode::kFused, ExecutionMode::kMaterialized}) {
      SCOPED_TRACE(c.where + (exec == ExecutionMode::kFused ? " fused"
                                                             : " materialized"));
      obs::QueryTrace trace;
      QueryOptions options;
      options.execution = exec;
      options.degree_of_parallelism = 4;
      options.trace = &trace;
      Result<Table> r = db_.Query(
          "SELECT state, dweek, Vpct(salesAmt BY dweek) FROM sales_named "
          "WHERE " +
              c.where + " GROUP BY state, dweek",
          options);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      const obs::TraceNode* filter = FindNode(trace.root(), "filter");
      ASSERT_NE(filter, nullptr) << trace.Render();
      // The fused scan evaluates the predicate in each morsel's worker.
      const std::string want_detail =
          exec == ExecutionMode::kFused ? c.evaluator + ", per morsel"
                                        : c.evaluator;
      EXPECT_EQ(filter->detail, want_detail) << trace.Render();
      EXPECT_EQ(filter->stats.rows_in, 400u);
      EXPECT_EQ(filter->stats.rows_out, static_cast<uint64_t>(want_rows));
      ExpectChildrenFitInParent(trace.root());
    }
  }
}

// --- Surfacing through Query() ----------------------------------------------

TEST_F(ExplainAnalyzeTest, ExplainAnalyzeThroughQueryReturnsPlanColumn) {
  Result<Table> t = db_.Query(std::string("EXPLAIN ANALYZE ") + kVpctSql);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->num_columns(), 1u);
  EXPECT_EQ(t->schema().column(0).name, "plan");
  EXPECT_GT(t->num_rows(), 5u);
}

TEST_F(ExplainAnalyzeTest, PlainExplainStillReturnsScript) {
  Result<Table> t = db_.Query(std::string("EXPLAIN ") + kVpctSql);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->num_columns(), 1u);
  EXPECT_GT(t->num_rows(), 0u);
}

TEST_F(ExplainAnalyzeTest, ForcedStrategyIsReportedAsForced) {
  QueryOptions options;
  options.vpct_strategy = VpctStrategy{};
  obs::QueryTrace trace;
  options.trace = &trace;
  ASSERT_TRUE(db_.Query(kVpctSql, options).ok());
  EXPECT_EQ(trace.strategy_source, "forced");
}

// --- Plain EXPLAIN shows the plan that runs --------------------------------

// The "<name> (<source>)" part of the first line of `text` that starts with
// `prefix`.
std::string StrategyLine(const std::string& text, const std::string& prefix) {
  size_t begin = 0;
  while (begin < text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    if (text.compare(begin, prefix.size(), prefix) == 0) {
      return text.substr(begin + prefix.size(), end - begin - prefix.size());
    }
    begin = end + 1;
  }
  return "<none>";
}

TEST(ExplainMatchesAnalyzeTest, PlainExplainNamesTheStrategyThatRuns) {
  const std::vector<std::string> sqls = {
      "SELECT state, Vpct(salesAmt BY state) FROM sales GROUP BY state",
      "SELECT state, Hpct(salesAmt BY dweek) FROM sales GROUP BY state",
      "SELECT state, dweek, sum(salesAmt) FROM sales GROUP BY state, dweek",
      "SELECT state, dweek, Vpct(salesAmt BY dweek) FROM sales "
      "GROUP BY CUBE(state, dweek)"};
  // One table below and one above the advisor's fused-row threshold.
  for (size_t rows : {size_t{1200}, StrategyAdvisor::kFusedMinRows + 4000}) {
    PctDatabase db;
    ASSERT_TRUE(db.CreateTable("sales", GenerateSales(rows)).ok());
    for (ExecutionMode exec :
         {ExecutionMode::kAuto, ExecutionMode::kFused,
          ExecutionMode::kMaterialized}) {
      for (size_t dop : {size_t{1}, size_t{3}}) {
        for (const std::string& sql : sqls) {
          SCOPED_TRACE(sql + " rows=" + std::to_string(rows) + " exec=" +
                       std::to_string(static_cast<int>(exec)) +
                       " dop=" + std::to_string(dop));
          QueryOptions options;
          options.execution = exec;
          options.degree_of_parallelism = dop;
          Result<std::string> plan = db.Explain(sql, options);
          ASSERT_TRUE(plan.ok()) << plan.status().ToString();
          Result<std::string> ran = db.ExplainAnalyze(sql, options);
          ASSERT_TRUE(ran.ok()) << ran.status().ToString();
          const std::string shown = StrategyLine(*plan, "-- strategy: ");
          EXPECT_NE(shown, "<none>") << *plan;
          EXPECT_EQ(shown, StrategyLine(*ran, "strategy: ")) << *plan << *ran;
        }
      }
    }
  }
}

}  // namespace
}  // namespace pctagg
