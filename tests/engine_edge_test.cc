// Engine edge cases: zero-row inputs through every operator, degenerate
// shapes, and boundary conditions not covered by the per-operator suites.

#include <gtest/gtest.h>

#include "engine/join.h"
#include "engine/pipeline.h"
#include "engine/pivot.h"
#include "engine/table_ops.h"
#include "engine/update.h"
#include "engine/window.h"

namespace pctagg {
namespace {

Table EmptyFact() {
  return Table(Schema({{"d", DataType::kInt64},
                       {"e", DataType::kInt64},
                       {"a", DataType::kFloat64}}));
}

TEST(EngineEdgeTest, OperatorsOnEmptyInput) {
  Table empty = EmptyFact();
  EXPECT_EQ(Filter(empty, Eq(Col("d"), Lit(Value::Int64(1))))
                .value()
                .num_rows(),
            0u);
  EXPECT_EQ(Project(empty, {{Col("a"), "a"}}).value().num_rows(), 0u);
  EXPECT_EQ(Distinct(empty, {"d"}).value().num_rows(), 0u);
  EXPECT_EQ(SortBy(empty, {{"d"}}).value().num_rows(), 0u);
  EXPECT_EQ(SortBy(empty, {{"d", true}}).value().num_rows(), 0u);
  EXPECT_EQ(Limit(empty, 10).num_rows(), 0u);
  EXPECT_EQ(FusedAggregate(empty, nullptr, {"d"},
                           {{AggFunc::kSum, Col("a"), "s"}})
                .value()
                .num_rows(),
            0u);
  EXPECT_EQ(WindowAggregate(empty, {"d"}, AggFunc::kSum, Col("a"))
                .value()
                .size(),
            0u);
  // Pivot over empty input: no combinations discovered, so only group
  // columns appear, zero rows.
  Table p = HashDispatchPivot(empty, {"d"}, {"e"}, Col("a"), PivotOptions{})
                .value();
  EXPECT_EQ(p.num_rows(), 0u);
  EXPECT_EQ(p.num_columns(), 1u);
}

TEST(EngineEdgeTest, JoinsWithEmptySides) {
  Table empty = EmptyFact();
  Table one = EmptyFact();
  ASSERT_TRUE(
      one.AppendRow({Value::Int64(1), Value::Int64(1), Value::Float64(1)})
          .ok());
  std::vector<JoinOutput> outs = {JoinOutput::Left("d"),
                                  JoinOutput::Right("a")};
  EXPECT_EQ(HashJoin(empty, one, {"d"}, {"d"}, JoinKind::kInner, outs)
                .value()
                .num_rows(),
            0u);
  EXPECT_EQ(HashJoin(one, empty, {"d"}, {"d"}, JoinKind::kInner, outs)
                .value()
                .num_rows(),
            0u);
  Table outer = HashJoin(one, empty, {"d"}, {"d"}, JoinKind::kLeftOuter, outs)
                    .value();
  ASSERT_EQ(outer.num_rows(), 1u);
  EXPECT_TRUE(outer.column(1).IsNull(0));
  EXPECT_EQ(LookupColumn(one, empty, {"d"}, {"d"}, "a").value().size(), 1u);
}

TEST(EngineEdgeTest, UpdateAgainstEmptySource) {
  Table target = EmptyFact();
  ASSERT_TRUE(
      target.AppendRow({Value::Int64(1), Value::Int64(1), Value::Float64(4)})
          .ok());
  Table source(Schema({{"d", DataType::kInt64}, {"tot", DataType::kFloat64}}));
  ASSERT_TRUE(
      KeyedDivideUpdate(&target, {"d"}, "a", source, {"d"}, "tot").ok());
  EXPECT_TRUE(target.column(2).IsNull(0));  // no total found
}

TEST(EngineEdgeTest, LimitEdges) {
  Table one = EmptyFact();
  ASSERT_TRUE(
      one.AppendRow({Value::Int64(1), Value::Int64(1), Value::Float64(1)})
          .ok());
  EXPECT_EQ(Limit(one, 0).num_rows(), 0u);
  EXPECT_EQ(Limit(one, 1).num_rows(), 1u);
  EXPECT_EQ(Limit(one, 2).num_rows(), 1u);
}

TEST(EngineEdgeTest, SortByMultipleDirections) {
  Table t(Schema({{"x", DataType::kInt64}, {"y", DataType::kInt64}}));
  t.AppendRow({Value::Int64(1), Value::Int64(1)});
  t.AppendRow({Value::Int64(1), Value::Int64(2)});
  t.AppendRow({Value::Int64(2), Value::Int64(1)});
  Table out = SortBy(t, {{"x", false}, {"y", true}}).value();
  EXPECT_EQ(out.column(0).Int64At(0), 1);
  EXPECT_EQ(out.column(1).Int64At(0), 2);  // y descending within x
  EXPECT_EQ(out.column(1).Int64At(1), 1);
  EXPECT_EQ(out.column(0).Int64At(2), 2);
}

TEST(EngineEdgeTest, PivotSingleGroupSingleCombo) {
  Table t = EmptyFact();
  ASSERT_TRUE(
      t.AppendRow({Value::Int64(1), Value::Int64(7), Value::Float64(3)})
          .ok());
  PivotOptions pct;
  pct.percent_of_group_total = true;
  Table out = HashDispatchPivot(t, {"d"}, {"e"}, Col("a"), pct).value();
  ASSERT_EQ(out.num_rows(), 1u);
  ASSERT_EQ(out.num_columns(), 2u);
  EXPECT_DOUBLE_EQ(out.column(1).Float64At(0), 1.0);  // 100% of itself
}

TEST(EngineEdgeTest, WindowOnSingleRow) {
  Table t = EmptyFact();
  ASSERT_TRUE(
      t.AppendRow({Value::Int64(1), Value::Int64(1), Value::Float64(3)})
          .ok());
  Column c = WindowAggregate(t, {"d"}, AggFunc::kAvg, Col("a")).value();
  ASSERT_EQ(c.size(), 1u);
  EXPECT_DOUBLE_EQ(c.Float64At(0), 3.0);
}

TEST(EngineEdgeTest, AggregateManyGroupsOneRowEach) {
  Table t = EmptyFact();
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(t.AppendRow({Value::Int64(i), Value::Int64(0),
                             Value::Float64(static_cast<double>(i))})
                    .ok());
  }
  Table out =
      FusedAggregate(t, nullptr, {"d"}, {{AggFunc::kSum, Col("a"), "s"}})
          .value();
  EXPECT_EQ(out.num_rows(), 100u);
}

TEST(EngineEdgeTest, TableToStringZeroRows) {
  std::string s = EmptyFact().ToString();
  EXPECT_NE(s.find("d"), std::string::npos);
  EXPECT_NE(s.find("a"), std::string::npos);
}

TEST(EngineEdgeTest, ColumnReserveDoesNotChangeSize) {
  Column c(DataType::kInt64);
  c.Reserve(100);
  EXPECT_EQ(c.size(), 0u);
  EXPECT_TRUE(c.empty());
}

}  // namespace
}  // namespace pctagg
