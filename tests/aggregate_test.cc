// Unit tests for the GROUP BY kernel (FusedAggregate without a WHERE): every
// aggregate function, NULL-skipping semantics, empty inputs, global groups
// and expression inputs.

#include "engine/pipeline.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>

#include "engine/table.h"

namespace pctagg {
namespace {

// d | a
// 1 | 10
// 1 | NULL
// 2 | 4
// 2 | 6
// NULL | 5
Table TestTable() {
  Table t(Schema({{"d", DataType::kInt64}, {"a", DataType::kFloat64}}));
  t.AppendRow({Value::Int64(1), Value::Float64(10.0)});
  t.AppendRow({Value::Int64(1), Value::Null()});
  t.AppendRow({Value::Int64(2), Value::Float64(4.0)});
  t.AppendRow({Value::Int64(2), Value::Float64(6.0)});
  t.AppendRow({Value::Null(), Value::Float64(5.0)});
  return t;
}

// Keyed by the first column's int value; NULL maps to the sentinel -999.
std::map<int64_t, std::vector<Value>> RowsByKey(const Table& t) {
  std::map<int64_t, std::vector<Value>> out;
  for (size_t i = 0; i < t.num_rows(); ++i) {
    std::vector<Value> row = t.GetRow(i);
    out[row[0].is_null() ? -999 : row[0].int64()] = row;
  }
  return out;
}

TEST(AggregateTest, SumCountAvgMinMaxPerGroup) {
  Table t = TestTable();
  Result<Table> r = FusedAggregate(t, nullptr, {"d"},
                                   {{AggFunc::kSum, Col("a"), "s"},
                                    {AggFunc::kCount, Col("a"), "c"},
                                    {AggFunc::kCountStar, nullptr, "n"},
                                    {AggFunc::kAvg, Col("a"), "avg"},
                                    {AggFunc::kMin, Col("a"), "lo"},
                                    {AggFunc::kMax, Col("a"), "hi"}});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Table& out = r.value();
  EXPECT_EQ(out.num_rows(), 3u);  // groups: 1, 2, NULL
  auto rows = RowsByKey(out);
  // Group 1: one NULL input skipped by sum/count/avg, counted by count(*).
  const std::vector<Value>& g1 = rows.at(1);
  EXPECT_DOUBLE_EQ(g1[1].float64(), 10.0);
  EXPECT_EQ(g1[2].int64(), 1);
  EXPECT_EQ(g1[3].int64(), 2);
  EXPECT_DOUBLE_EQ(g1[4].float64(), 10.0);
  // Group 2.
  const std::vector<Value>& g2 = rows.at(2);
  EXPECT_DOUBLE_EQ(g2[1].float64(), 10.0);
  EXPECT_DOUBLE_EQ(g2[4].float64(), 5.0);
  EXPECT_DOUBLE_EQ(g2[5].float64(), 4.0);
  EXPECT_DOUBLE_EQ(g2[6].float64(), 6.0);
  // NULL is a group of its own (SQL GROUP BY semantics).
  const std::vector<Value>& gn = rows.at(-999);
  EXPECT_DOUBLE_EQ(gn[1].float64(), 5.0);
}

TEST(AggregateTest, AllNullGroupSumsToNull) {
  Table t(Schema({{"d", DataType::kInt64}, {"a", DataType::kFloat64}}));
  t.AppendRow({Value::Int64(1), Value::Null()});
  t.AppendRow({Value::Int64(1), Value::Null()});
  Table out = FusedAggregate(t, nullptr, {"d"},
                             {{AggFunc::kSum, Col("a"), "s"},
                             {AggFunc::kAvg, Col("a"), "avg"},
                             {AggFunc::kMin, Col("a"), "lo"},
                             {AggFunc::kCount, Col("a"), "c"}})
                  .value();
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_TRUE(out.column(1).IsNull(0));
  EXPECT_TRUE(out.column(2).IsNull(0));
  EXPECT_TRUE(out.column(3).IsNull(0));
  EXPECT_EQ(out.column(4).Int64At(0), 0);  // count of non-null is 0, not NULL
}

TEST(AggregateTest, IntSumStaysInt) {
  Table t(Schema({{"d", DataType::kInt64}, {"q", DataType::kInt64}}));
  t.AppendRow({Value::Int64(1), Value::Int64(3)});
  t.AppendRow({Value::Int64(1), Value::Int64(4)});
  Table out =
      FusedAggregate(t, nullptr, {"d"}, {{AggFunc::kSum, Col("q"), "s"}})
          .value();
  EXPECT_EQ(out.schema().column(1).type, DataType::kInt64);
  EXPECT_EQ(out.column(1).Int64At(0), 7);
}

TEST(AggregateTest, GlobalGroupOnEmptyInput) {
  Table t(Schema({{"a", DataType::kFloat64}}));
  Table out = FusedAggregate(t, nullptr, {},
                             {{AggFunc::kSum, Col("a"), "s"},
                             {AggFunc::kCountStar, nullptr, "n"}})
                  .value();
  ASSERT_EQ(out.num_rows(), 1u);  // SQL: global aggregate of empty set
  EXPECT_TRUE(out.column(0).IsNull(0));
  EXPECT_EQ(out.column(1).Int64At(0), 0);
}

TEST(AggregateTest, GroupedAggregateOnEmptyInputIsEmpty) {
  Table t(Schema({{"d", DataType::kInt64}, {"a", DataType::kFloat64}}));
  Table out =
      FusedAggregate(t, nullptr, {"d"}, {{AggFunc::kSum, Col("a"), "s"}})
          .value();
  EXPECT_EQ(out.num_rows(), 0u);
}

TEST(AggregateTest, ExpressionInput) {
  Table t = TestTable();
  // sum(CASE WHEN d = 1 THEN a ELSE 0 END) over all rows.
  ExprPtr cse = CaseWhen({{Eq(Col("d"), Lit(Value::Int64(1))), Col("a")}},
                         Lit(Value::Int64(0)));
  Table out =
      FusedAggregate(t, nullptr, {}, {{AggFunc::kSum, cse, "s"}}).value();
  EXPECT_DOUBLE_EQ(out.column(0).Float64At(0), 10.0);
}

TEST(AggregateTest, StringMinMax) {
  Table t(Schema({{"d", DataType::kInt64}, {"s", DataType::kString}}));
  t.AppendRow({Value::Int64(1), Value::String("pear")});
  t.AppendRow({Value::Int64(1), Value::String("apple")});
  t.AppendRow({Value::Int64(1), Value::Null()});
  Table out = FusedAggregate(t, nullptr, {"d"},
                             {{AggFunc::kMin, Col("s"), "lo"},
                             {AggFunc::kMax, Col("s"), "hi"}})
                  .value();
  EXPECT_EQ(out.column(1).StringAt(0), "apple");
  EXPECT_EQ(out.column(2).StringAt(0), "pear");
}

TEST(AggregateTest, SumOverStringRejected) {
  Table t(Schema({{"s", DataType::kString}}));
  EXPECT_EQ(FusedAggregate(t, nullptr, {}, {{AggFunc::kSum, Col("s"), "x"}})
                .status()
                .code(),
            StatusCode::kTypeMismatch);
}

TEST(AggregateTest, MissingInputExpressionRejected) {
  Table t = TestTable();
  EXPECT_FALSE(
      FusedAggregate(t, nullptr, {}, {{AggFunc::kSum, nullptr, "x"}}).ok());
}

TEST(AggregateTest, UnknownGroupColumnRejected) {
  Table t = TestTable();
  EXPECT_EQ(FusedAggregate(t, nullptr, {"zzz"},
                           {{AggFunc::kCountStar, nullptr, "n"}})
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(AggregateTest, MultipleGroupColumns) {
  Table t(Schema({{"x", DataType::kInt64},
                  {"y", DataType::kInt64},
                  {"a", DataType::kFloat64}}));
  t.AppendRow({Value::Int64(1), Value::Int64(1), Value::Float64(1)});
  t.AppendRow({Value::Int64(1), Value::Int64(2), Value::Float64(2)});
  t.AppendRow({Value::Int64(1), Value::Int64(1), Value::Float64(3)});
  Table out = FusedAggregate(t, nullptr, {"x", "y"},
                             {{AggFunc::kSum, Col("a"), "s"}})
                  .value();
  EXPECT_EQ(out.num_rows(), 2u);
}

TEST(AggregateTest, AvgIsSumOverCount) {
  Table t = TestTable();
  Table out =
      FusedAggregate(t, nullptr, {}, {{AggFunc::kAvg, Col("a"), "m"}}).value();
  EXPECT_DOUBLE_EQ(out.column(0).Float64At(0), 25.0 / 4.0);
}

// min()/max() over INT64 stay int64: 2^53 + 1 has no double of its own, and
// INT64_MAX rounds to 2^63, which does not convert back.
TEST(AggregateTest, Int64MinMaxExactBeyondTwoTo53) {
  const int64_t two53 = int64_t{1} << 53;
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  Table t(Schema({{"d", DataType::kInt64}, {"a", DataType::kInt64}}));
  t.AppendRow({Value::Int64(1), Value::Int64(two53 + 1)});
  t.AppendRow({Value::Int64(1), Value::Int64(two53)});
  t.AppendRow({Value::Int64(1), Value::Int64(two53 + 3)});
  t.AppendRow({Value::Int64(2), Value::Int64(kMax)});
  t.AppendRow({Value::Int64(2), Value::Int64(kMax - 1)});
  t.AppendRow({Value::Int64(2), Value::Int64(kMin)});
  t.AppendRow({Value::Int64(2), Value::Int64(kMin + 1)});
  for (size_t dop : {size_t{1}, size_t{4}}) {
    Table out = FusedAggregate(t, nullptr, {"d"},
                               {{AggFunc::kMin, Col("a"), "lo"},
                                {AggFunc::kMax, Col("a"), "hi"}},
                               dop)
                    .value();
    ASSERT_EQ(out.num_rows(), 2u);
    EXPECT_EQ(out.column(1).Int64At(0), two53);
    EXPECT_EQ(out.column(2).Int64At(0), two53 + 3);
    EXPECT_EQ(out.column(1).Int64At(1), kMin);
    EXPECT_EQ(out.column(2).Int64At(1), kMax);
  }
  // The global group, and a WHERE that keeps only the two neighbours.
  Table g = FusedAggregate(t, Lt(Col("a"), Lit(Value::Int64(two53 + 2))), {},
                           {{AggFunc::kMax, Col("a"), "hi"}})
                .value();
  EXPECT_EQ(g.column(0).Int64At(0), two53 + 1);
}

}  // namespace
}  // namespace pctagg
