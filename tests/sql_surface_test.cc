// Tests for the extended SQL surface: HAVING, ORDER BY ... DESC, LIMIT,
// and the scalar functions COALESCE / ABS / ROUND — end to end through
// PctDatabase and at the expression level.

#include <gtest/gtest.h>

#include "core/database.h"
#include "sql/parser.h"

namespace pctagg {
namespace {

class SqlSurfaceDb {
 public:
  SqlSurfaceDb() {
    Table f(Schema({{"d", DataType::kInt64},
                    {"e", DataType::kInt64},
                    {"a", DataType::kFloat64}}));
    f.AppendRow({Value::Int64(1), Value::Int64(1), Value::Float64(10)});
    f.AppendRow({Value::Int64(1), Value::Int64(2), Value::Float64(30)});
    f.AppendRow({Value::Int64(2), Value::Int64(1), Value::Float64(5)});
    f.AppendRow({Value::Int64(3), Value::Int64(2), Value::Null()});
    f.AppendRow({Value::Int64(3), Value::Int64(1), Value::Float64(2)});
    db_.CreateTable("f", std::move(f)).ok();
  }
  PctDatabase& operator*() { return db_; }
  PctDatabase* operator->() { return &db_; }

 private:
  PctDatabase db_;
};

TEST(SqlSurfaceTest, OrderByDescending) {
  SqlSurfaceDb db;
  Table t = db->Query("SELECT d, sum(a) AS s FROM f GROUP BY d "
                     "ORDER BY s DESC")
                .value();
  ASSERT_EQ(t.num_rows(), 3u);
  EXPECT_DOUBLE_EQ(t.ColumnByName("s").value()->Float64At(0), 40.0);
  EXPECT_DOUBLE_EQ(t.ColumnByName("s").value()->Float64At(1), 5.0);
  EXPECT_DOUBLE_EQ(t.ColumnByName("s").value()->Float64At(2), 2.0);
}

TEST(SqlSurfaceTest, DescendingPutsNullsLast) {
  SqlSurfaceDb db;
  Table t = db->Query("SELECT d, e, sum(a) AS s FROM f GROUP BY d, e "
                     "ORDER BY s DESC")
                .value();
  // The (3,2) group's sum is NULL: last under DESC.
  EXPECT_TRUE(t.ColumnByName("s").value()->IsNull(t.num_rows() - 1));
  Table asc = db->Query("SELECT d, e, sum(a) AS s FROM f GROUP BY d, e "
                       "ORDER BY s")
                  .value();
  EXPECT_TRUE(asc.ColumnByName("s").value()->IsNull(0));
}

TEST(SqlSurfaceTest, LimitTruncates) {
  SqlSurfaceDb db;
  Table t = db->Query("SELECT d, sum(a) AS s FROM f GROUP BY d "
                     "ORDER BY d LIMIT 2")
                .value();
  EXPECT_EQ(t.num_rows(), 2u);
  // LIMIT larger than the result is a no-op.
  Table all = db->Query("SELECT d, sum(a) AS s FROM f GROUP BY d LIMIT 99")
                  .value();
  EXPECT_EQ(all.num_rows(), 3u);
  EXPECT_EQ(db->Query("SELECT d FROM f LIMIT 0").value().num_rows(), 0u);
}

// INT64 values beyond 2^53 (where neighbouring integers share one double)
// order and aggregate exactly.
TEST(SqlSurfaceTest, Int64BeyondTwoTo53OrdersAndAggregatesExactly) {
  PctDatabase db;
  Table s(
      Schema({{"store", DataType::kInt64}, {"salesAmt", DataType::kInt64}}));
  ASSERT_TRUE(db.CreateTable("s", std::move(s)).ok());
  ASSERT_TRUE(db.Execute("INSERT INTO s (store, salesAmt) VALUES "
                         "(9007199254740993, 1), (9007199254740992, 2)")
                  .ok());
  Table sorted = db.Query("SELECT store, salesAmt FROM s WHERE store > "
                          "9000000000000000 ORDER BY store")
                     .value();
  ASSERT_EQ(sorted.num_rows(), 2u);
  EXPECT_EQ(sorted.column(0).Int64At(0), 9007199254740992);
  EXPECT_EQ(sorted.column(0).Int64At(1), 9007199254740993);
  Table mx = db.Query("SELECT max(store) AS m, min(store) AS n FROM s").value();
  EXPECT_EQ(mx.column(0).Int64At(0), 9007199254740993);
  EXPECT_EQ(mx.column(1).Int64At(0), 9007199254740992);
  Table grouped = db.Query("SELECT salesAmt, max(store) AS m FROM s "
                           "GROUP BY salesAmt ORDER BY m DESC")
                      .value();
  EXPECT_EQ(grouped.column(1).Int64At(0), 9007199254740993);
}

TEST(SqlSurfaceTest, HavingFiltersGroups) {
  SqlSurfaceDb db;
  Table t = db->Query("SELECT d, sum(a) AS s FROM f GROUP BY d "
                     "HAVING s > 4 ORDER BY d")
                .value();
  ASSERT_EQ(t.num_rows(), 2u);  // d=3 (sum 2) drops
  EXPECT_EQ(t.column(0).Int64At(0), 1);
  EXPECT_EQ(t.column(0).Int64At(1), 2);
}

TEST(SqlSurfaceTest, HavingWorksOnPercentageQueries) {
  SqlSurfaceDb db;
  Table t = db->Query("SELECT d, e, Vpct(a BY e) AS pct FROM f "
                     "GROUP BY d, e HAVING pct >= 0.5 ORDER BY d, e")
                .value();
  const Column& pct = *t.ColumnByName("pct").value();
  for (size_t i = 0; i < t.num_rows(); ++i) {
    ASSERT_FALSE(pct.IsNull(i));
    EXPECT_GE(pct.Float64At(i), 0.5);
  }
  EXPECT_GT(t.num_rows(), 0u);
}

TEST(SqlSurfaceTest, HavingRequiresGroupBy) {
  SqlSurfaceDb db;
  EXPECT_EQ(db->Query("SELECT a FROM f HAVING a > 1").status().code(),
            StatusCode::kParseError);
}

TEST(SqlSurfaceTest, HavingOverUnknownColumnErrors) {
  SqlSurfaceDb db;
  EXPECT_FALSE(db->Query("SELECT d, sum(a) AS s FROM f GROUP BY d "
                        "HAVING nope > 1")
                   .ok());
}

TEST(SqlSurfaceTest, CoalesceInQueries) {
  SqlSurfaceDb db;
  Table t = db->Query("SELECT d, e, COALESCE(a, 0) AS a0 FROM f "
                     "ORDER BY d, e")
                .value();
  // The NULL measure becomes 0.
  const Column& a0 = *t.ColumnByName("a0").value();
  for (size_t i = 0; i < t.num_rows(); ++i) {
    EXPECT_FALSE(a0.IsNull(i));
  }
}

TEST(SqlSurfaceTest, AbsAndRound) {
  SqlSurfaceDb db;
  Table t = db->Query("SELECT d, ABS(0 - a) AS m, ROUND(a / 3, 2) AS r "
                     "FROM f WHERE a IS NOT NULL ORDER BY d, m")
                .value();
  EXPECT_DOUBLE_EQ(t.ColumnByName("m").value()->Float64At(0), 10.0);
  EXPECT_DOUBLE_EQ(t.ColumnByName("r").value()->Float64At(0), 3.33);
}

TEST(SqlSurfaceTest, ScalarFunctionExpressions) {
  Table t(Schema({{"x", DataType::kFloat64}, {"s", DataType::kString}}));
  t.AppendRow({Value::Null(), Value::String("a")});
  t.AppendRow({Value::Float64(-2.345), Value::Null()});
  // COALESCE across types errors.
  EXPECT_EQ(Coalesce({Col("x"), Col("s")})->ResultType(t.schema()).status().code(),
            StatusCode::kTypeMismatch);
  // COALESCE picks the first non-null.
  Column c = Coalesce({Col("x"), Lit(Value::Float64(9.0))})->Evaluate(t).value();
  EXPECT_DOUBLE_EQ(c.Float64At(0), 9.0);
  EXPECT_DOUBLE_EQ(c.Float64At(1), -2.345);
  // ABS preserves NULL and integer types.
  Column a = Abs(Col("x"))->Evaluate(t).value();
  EXPECT_TRUE(a.IsNull(0));
  EXPECT_DOUBLE_EQ(a.Float64At(1), 2.345);
  Column ai = Abs(Lit(Value::Int64(-5)))->Evaluate(t).value();
  EXPECT_EQ(ai.type(), DataType::kInt64);
  EXPECT_EQ(ai.Int64At(0), 5);
  // ROUND.
  Column r = Round(Col("x"), 1)->Evaluate(t).value();
  EXPECT_TRUE(r.IsNull(0));
  EXPECT_DOUBLE_EQ(r.Float64At(1), -2.3);
  // ABS/ROUND over strings error.
  EXPECT_FALSE(Abs(Col("s"))->ResultType(t.schema()).ok());
  EXPECT_FALSE(Round(Col("s"), 0)->ResultType(t.schema()).ok());
}

TEST(SqlSurfaceTest, ParserErrorsForNewSyntax) {
  EXPECT_EQ(ParseSelect("SELECT a FROM f LIMIT x").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseSelect("SELECT ABS(a, b) FROM f").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseSelect("SELECT ROUND() FROM f").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseSelect("SELECT COALESCE() FROM f").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseSelect("SELECT ROUND(a, b) FROM f").status().code(),
            StatusCode::kParseError);
}

TEST(SqlSurfaceTest, RoundTripRendering) {
  std::string sql =
      "SELECT d, sum(a) AS s FROM f GROUP BY d HAVING s > 4 "
      "ORDER BY s DESC LIMIT 5;";
  SelectStatement stmt = ParseSelect(sql).value();
  SelectStatement again = ParseSelect(stmt.ToString()).value();
  EXPECT_EQ(stmt.ToString(), again.ToString());
  EXPECT_TRUE(stmt.has_limit);
  EXPECT_EQ(stmt.limit, 5u);
  ASSERT_EQ(stmt.order_by.size(), 1u);
  EXPECT_TRUE(stmt.order_by[0].descending);
}

}  // namespace
}  // namespace pctagg
