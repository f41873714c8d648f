// Unit tests for the three special-purpose operators behind the paper's
// strategies: KeyedDivideUpdate (the UPDATE path), WindowAggregate (the OLAP
// baseline) and HashDispatchPivot (the transpose-and-aggregate primitive).

#include <gtest/gtest.h>

#include <cstdint>

#include "engine/index.h"
#include "engine/pivot.h"
#include "engine/table.h"
#include "engine/update.h"
#include "engine/window.h"

namespace pctagg {
namespace {

// Fk-like table: (state, sum) rows.
Table MakeFk() {
  Table t(Schema({{"state", DataType::kInt64},
                  {"city", DataType::kInt64},
                  {"a", DataType::kFloat64}}));
  t.AppendRow({Value::Int64(1), Value::Int64(1), Value::Float64(30)});
  t.AppendRow({Value::Int64(1), Value::Int64(2), Value::Float64(70)});
  t.AppendRow({Value::Int64(2), Value::Int64(1), Value::Float64(50)});
  t.AppendRow({Value::Int64(3), Value::Int64(1), Value::Float64(10)});
  return t;
}

// Fj-like totals: state 1 -> 100, state 2 -> 0 (division-by-zero case);
// state 3 missing entirely.
Table MakeFj() {
  Table t(Schema({{"state", DataType::kInt64}, {"tot", DataType::kFloat64}}));
  t.AppendRow({Value::Int64(1), Value::Float64(100)});
  t.AppendRow({Value::Int64(2), Value::Float64(0)});
  return t;
}

TEST(KeyedDivideUpdateTest, DividesInPlace) {
  Table fk = MakeFk();
  Table fj = MakeFj();
  ASSERT_TRUE(
      KeyedDivideUpdate(&fk, {"state"}, "a", fj, {"state"}, "tot").ok());
  EXPECT_DOUBLE_EQ(fk.column(2).Float64At(0), 0.3);
  EXPECT_DOUBLE_EQ(fk.column(2).Float64At(1), 0.7);
  EXPECT_TRUE(fk.column(2).IsNull(2));  // zero divisor -> NULL
  EXPECT_TRUE(fk.column(2).IsNull(3));  // missing total -> NULL
  // The updated column is FLOAT64 after the rewrite.
  EXPECT_EQ(fk.schema().column(2).type, DataType::kFloat64);
}

TEST(KeyedDivideUpdateTest, WithMatchingIndex) {
  Table fk = MakeFk();
  Table fj = MakeFj();
  HashIndex index = HashIndex::Build(fj, {"state"}).value();
  ASSERT_TRUE(KeyedDivideUpdate(&fk, {"state"}, "a", fj, {"state"}, "tot",
                                &index)
                  .ok());
  EXPECT_DOUBLE_EQ(fk.column(2).Float64At(0), 0.3);
}

TEST(KeyedDivideUpdateTest, RejectsBadArguments) {
  Table fk = MakeFk();
  Table fj = MakeFj();
  EXPECT_FALSE(KeyedDivideUpdate(&fk, {}, "a", fj, {}, "tot").ok());
  EXPECT_FALSE(
      KeyedDivideUpdate(&fk, {"state"}, "zzz", fj, {"state"}, "tot").ok());
  Table strings(
      Schema({{"state", DataType::kInt64}, {"a", DataType::kString}}));
  EXPECT_EQ(KeyedDivideUpdate(&strings, {"state"}, "a", fj, {"state"}, "tot")
                .code(),
            StatusCode::kTypeMismatch);
}

Table FactRows() {
  Table t(Schema({{"d", DataType::kInt64},
                  {"e", DataType::kInt64},
                  {"a", DataType::kFloat64}}));
  t.AppendRow({Value::Int64(1), Value::Int64(1), Value::Float64(10)});
  t.AppendRow({Value::Int64(1), Value::Int64(2), Value::Float64(30)});
  t.AppendRow({Value::Int64(2), Value::Int64(1), Value::Float64(5)});
  t.AppendRow({Value::Int64(2), Value::Int64(1), Value::Null()});
  return t;
}

TEST(WindowAggregateTest, SumPerPartitionOnEveryRow) {
  Table t = FactRows();
  Column c = WindowAggregate(t, {"d"}, AggFunc::kSum, Col("a")).value();
  ASSERT_EQ(c.size(), 4u);
  EXPECT_DOUBLE_EQ(c.Float64At(0), 40.0);
  EXPECT_DOUBLE_EQ(c.Float64At(1), 40.0);
  EXPECT_DOUBLE_EQ(c.Float64At(2), 5.0);
  EXPECT_DOUBLE_EQ(c.Float64At(3), 5.0);  // NULL input skipped
}

TEST(WindowAggregateTest, EmptyPartitionIsGrandTotal) {
  Table t = FactRows();
  Column c = WindowAggregate(t, {}, AggFunc::kSum, Col("a")).value();
  for (size_t i = 0; i < c.size(); ++i) {
    EXPECT_DOUBLE_EQ(c.Float64At(i), 45.0);
  }
}

TEST(WindowAggregateTest, CountAndCountStar) {
  Table t = FactRows();
  Column count = WindowAggregate(t, {"d"}, AggFunc::kCount, Col("a")).value();
  Column star = WindowAggregate(t, {"d"}, AggFunc::kCountStar, nullptr).value();
  EXPECT_EQ(count.Int64At(2), 1);  // NULL not counted
  EXPECT_EQ(star.Int64At(2), 2);
}

TEST(WindowAggregateTest, MinMaxAvg) {
  Table t = FactRows();
  EXPECT_DOUBLE_EQ(
      WindowAggregate(t, {"d"}, AggFunc::kMin, Col("a")).value().Float64At(0),
      10.0);
  EXPECT_DOUBLE_EQ(
      WindowAggregate(t, {"d"}, AggFunc::kMax, Col("a")).value().Float64At(0),
      30.0);
  EXPECT_DOUBLE_EQ(
      WindowAggregate(t, {"d"}, AggFunc::kAvg, Col("a")).value().Float64At(0),
      20.0);
}

TEST(WindowAggregateTest, Int64MinMaxExactBeyondTwoTo53) {
  const int64_t two53 = int64_t{1} << 53;
  Table t(Schema({{"d", DataType::kInt64}, {"a", DataType::kInt64}}));
  t.AppendRow({Value::Int64(1), Value::Int64(two53 + 1)});
  t.AppendRow({Value::Int64(1), Value::Int64(two53)});
  t.AppendRow({Value::Int64(2), Value::Int64(INT64_MAX)});
  Column mx = WindowAggregate(t, {"d"}, AggFunc::kMax, Col("a")).value();
  Column mn = WindowAggregate(t, {"d"}, AggFunc::kMin, Col("a")).value();
  EXPECT_EQ(mx.Int64At(1), two53 + 1);
  EXPECT_EQ(mn.Int64At(0), two53);
  EXPECT_EQ(mx.Int64At(2), INT64_MAX);
}

TEST(WindowAggregateTest, AllNullPartitionYieldsNull) {
  Table t(Schema({{"d", DataType::kInt64}, {"a", DataType::kFloat64}}));
  t.AppendRow({Value::Int64(1), Value::Null()});
  Column c = WindowAggregate(t, {"d"}, AggFunc::kSum, Col("a")).value();
  EXPECT_TRUE(c.IsNull(0));
}

TEST(WindowAggregateTest, StringArgumentRejectedExceptCount) {
  Table t(Schema({{"d", DataType::kInt64}, {"s", DataType::kString}}));
  t.AppendRow({Value::Int64(1), Value::String("x")});
  EXPECT_FALSE(WindowAggregate(t, {"d"}, AggFunc::kSum, Col("s")).ok());
  EXPECT_TRUE(WindowAggregate(t, {"d"}, AggFunc::kCount, Col("s")).ok());
}

TEST(PivotTest, BasicSumPivot) {
  Table t = FactRows();
  Table out = HashDispatchPivot(t, {"d"}, {"e"}, Col("a"), PivotOptions{})
                  .value();
  // Columns: d, e=1, e=2 (first-seen order).
  ASSERT_EQ(out.num_columns(), 3u);
  EXPECT_EQ(out.schema().column(1).name, "e=1");
  EXPECT_EQ(out.schema().column(2).name, "e=2");
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(out.column(1).Float64At(0), 10.0);
  EXPECT_DOUBLE_EQ(out.column(2).Float64At(0), 30.0);
  EXPECT_DOUBLE_EQ(out.column(1).Float64At(1), 5.0);
  // Group d=2 has no e=2 rows: NULL (SPJ-consistent).
  EXPECT_TRUE(out.column(2).IsNull(1));
}

TEST(PivotTest, DefaultZeroCoalesces) {
  Table t = FactRows();
  PivotOptions options;
  options.default_zero = true;
  Table out = HashDispatchPivot(t, {"d"}, {"e"}, Col("a"), options).value();
  EXPECT_DOUBLE_EQ(out.column(2).Float64At(1), 0.0);
}

TEST(PivotTest, PercentModeAddsTo100) {
  Table t = FactRows();
  PivotOptions options;
  options.percent_of_group_total = true;
  Table out = HashDispatchPivot(t, {"d"}, {"e"}, Col("a"), options).value();
  EXPECT_DOUBLE_EQ(out.column(1).Float64At(0), 0.25);
  EXPECT_DOUBLE_EQ(out.column(2).Float64At(0), 0.75);
  // Group 2: 100% on e=1, 0% on the missing e=2.
  EXPECT_DOUBLE_EQ(out.column(1).Float64At(1), 1.0);
  EXPECT_DOUBLE_EQ(out.column(2).Float64At(1), 0.0);
}

TEST(PivotTest, PercentModeZeroTotalIsNull) {
  Table t(Schema({{"d", DataType::kInt64},
                  {"e", DataType::kInt64},
                  {"a", DataType::kFloat64}}));
  t.AppendRow({Value::Int64(1), Value::Int64(1), Value::Float64(5)});
  t.AppendRow({Value::Int64(1), Value::Int64(2), Value::Float64(-5)});
  t.AppendRow({Value::Int64(2), Value::Int64(1), Value::Float64(3)});
  PivotOptions options;
  options.percent_of_group_total = true;
  Table out = HashDispatchPivot(t, {"d"}, {"e"}, Col("a"), options).value();
  EXPECT_TRUE(out.column(1).IsNull(0));  // total 0 -> NULL percentages
  EXPECT_TRUE(out.column(2).IsNull(0));
  EXPECT_DOUBLE_EQ(out.column(1).Float64At(1), 1.0);
}

TEST(PivotTest, CountStarAndCount) {
  Table t = FactRows();
  PivotOptions star;
  star.func = AggFunc::kCountStar;
  Table s = HashDispatchPivot(t, {"d"}, {"e"}, nullptr, star).value();
  EXPECT_EQ(s.column(1).Int64At(1), 2);  // d=2,e=1: two rows
  EXPECT_TRUE(s.column(2).IsNull(1));    // d=2,e=2: no rows -> NULL
  PivotOptions cnt;
  cnt.func = AggFunc::kCount;
  Table c = HashDispatchPivot(t, {"d"}, {"e"}, Col("a"), cnt).value();
  EXPECT_EQ(c.column(1).Int64At(1), 1);  // the NULL measure is not counted
}

TEST(PivotTest, MinMaxAvgCells) {
  Table t = FactRows();
  PivotOptions mn;
  mn.func = AggFunc::kMin;
  EXPECT_DOUBLE_EQ(HashDispatchPivot(t, {"d"}, {"e"}, Col("a"), mn)
                       .value()
                       .column(1)
                       .Float64At(0),
                   10.0);
  PivotOptions av;
  av.func = AggFunc::kAvg;
  EXPECT_DOUBLE_EQ(HashDispatchPivot(t, {"d"}, {"e"}, Col("a"), av)
                       .value()
                       .column(1)
                       .Float64At(1),
                   5.0);
}

TEST(PivotTest, Int64MinMaxCellsExactBeyondTwoTo53) {
  const int64_t two53 = int64_t{1} << 53;
  Table t(Schema({{"d", DataType::kInt64},
                  {"e", DataType::kInt64},
                  {"a", DataType::kInt64}}));
  t.AppendRow({Value::Int64(1), Value::Int64(1), Value::Int64(two53 + 1)});
  t.AppendRow({Value::Int64(1), Value::Int64(1), Value::Int64(two53)});
  t.AppendRow({Value::Int64(2), Value::Int64(2), Value::Int64(INT64_MAX)});
  PivotOptions mx;
  mx.func = AggFunc::kMax;
  Table hi = HashDispatchPivot(t, {"d"}, {"e"}, Col("a"), mx).value();
  EXPECT_EQ(hi.column(1).Int64At(0), two53 + 1);
  EXPECT_EQ(hi.column(2).Int64At(1), INT64_MAX);
  PivotOptions mn;
  mn.func = AggFunc::kMin;
  Table lo = HashDispatchPivot(t, {"d"}, {"e"}, Col("a"), mn).value();
  EXPECT_EQ(lo.column(1).Int64At(0), two53);
}

TEST(PivotTest, EmptyGroupByGivesOneRow) {
  Table t = FactRows();
  Table out = HashDispatchPivot(t, {}, {"e"}, Col("a"), PivotOptions{})
                  .value();
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(out.column(0).Float64At(0), 15.0);  // e=1 total
  EXPECT_DOUBLE_EQ(out.column(1).Float64At(0), 30.0);  // e=2 total
}

TEST(PivotTest, MultipleByColumns) {
  Table t = FactRows();
  Table out = HashDispatchPivot(t, {}, {"d", "e"}, Col("a"), PivotOptions{})
                  .value();
  EXPECT_EQ(out.num_columns(), 3u);  // (1,1), (1,2), (2,1)
  EXPECT_EQ(out.schema().column(0).name, "d=1,e=1");
}

TEST(PivotTest, NullByValueIsItsOwnColumn) {
  Table t(Schema({{"e", DataType::kInt64}, {"a", DataType::kFloat64}}));
  t.AppendRow({Value::Int64(1), Value::Float64(1)});
  t.AppendRow({Value::Null(), Value::Float64(2)});
  Table out =
      HashDispatchPivot(t, {}, {"e"}, Col("a"), PivotOptions{}).value();
  ASSERT_EQ(out.num_columns(), 2u);
  // NULL sorts first in the deterministic column order.
  EXPECT_EQ(out.schema().column(0).name, "e=NULL");
  EXPECT_DOUBLE_EQ(out.column(0).Float64At(0), 2.0);
  EXPECT_EQ(out.schema().column(1).name, "e=1");
}

TEST(PivotTest, RejectsBadArguments) {
  Table t = FactRows();
  EXPECT_FALSE(HashDispatchPivot(t, {"d"}, {}, Col("a"), PivotOptions{}).ok());
  EXPECT_FALSE(
      HashDispatchPivot(t, {"d"}, {"e"}, nullptr, PivotOptions{}).ok());
}

}  // namespace
}  // namespace pctagg
