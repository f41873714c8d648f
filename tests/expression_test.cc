// Unit tests for the vectorized expression evaluator: arithmetic with NULL
// propagation, NULL-on-zero division (the Vpct safety net), three-valued
// logic, comparisons, CASE WHEN, and the predicate mask kernel checked row by
// row against truth values computed here from Values.

#include "engine/expression.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/table.h"

namespace pctagg {
namespace {

// d: 1, 2, NULL; a: 10.0, 0.0, 4.0; s: "x", "y", "x"
Table TestTable() {
  Table t(Schema({{"d", DataType::kInt64},
                  {"a", DataType::kFloat64},
                  {"s", DataType::kString}}));
  t.AppendRow({Value::Int64(1), Value::Float64(10.0), Value::String("x")});
  t.AppendRow({Value::Int64(2), Value::Float64(0.0), Value::String("y")});
  t.AppendRow({Value::Null(), Value::Float64(4.0), Value::String("x")});
  return t;
}

TEST(ExpressionTest, LiteralBroadcasts) {
  Table t = TestTable();
  Column c = Lit(Value::Int64(7))->Evaluate(t).value();
  ASSERT_EQ(c.size(), 3u);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(c.Int64At(i), 7);
}

TEST(ExpressionTest, NullLiteralTyped) {
  Table t = TestTable();
  ExprPtr e = NullLit(DataType::kFloat64);
  EXPECT_EQ(e->ResultType(t.schema()).value(), DataType::kFloat64);
  Column c = e->Evaluate(t).value();
  EXPECT_TRUE(c.IsNull(0));
}

TEST(ExpressionTest, ColumnRefCopies) {
  Table t = TestTable();
  Column c = Col("a")->Evaluate(t).value();
  EXPECT_DOUBLE_EQ(c.Float64At(0), 10.0);
  EXPECT_FALSE(Col("zzz")->Evaluate(t).ok());
}

TEST(ExpressionTest, ArithmeticTypesAndNulls) {
  Table t = TestTable();
  // int + int stays int.
  Column ii = Add(Col("d"), Lit(Value::Int64(1)))->Evaluate(t).value();
  EXPECT_EQ(ii.type(), DataType::kInt64);
  EXPECT_EQ(ii.Int64At(0), 2);
  EXPECT_TRUE(ii.IsNull(2));  // NULL propagates
  // int * float widens.
  Column f = Mul(Col("d"), Col("a"))->Evaluate(t).value();
  EXPECT_EQ(f.type(), DataType::kFloat64);
  EXPECT_DOUBLE_EQ(f.Float64At(0), 10.0);
  // Strings are rejected.
  EXPECT_EQ(Add(Col("s"), Col("d"))->Evaluate(t).status().code(),
            StatusCode::kTypeMismatch);
}

TEST(ExpressionTest, DivisionByZeroYieldsNull) {
  Table t = TestTable();
  Column c = Div(Lit(Value::Float64(1.0)), Col("a"))->Evaluate(t).value();
  EXPECT_EQ(c.type(), DataType::kFloat64);
  EXPECT_DOUBLE_EQ(c.Float64At(0), 0.1);
  EXPECT_TRUE(c.IsNull(1));  // 1/0 -> NULL, matching Vpct() semantics
  EXPECT_DOUBLE_EQ(c.Float64At(2), 0.25);
}

TEST(ExpressionTest, IntegerDivisionProducesFloat) {
  Table t = TestTable();
  Column c = Div(Lit(Value::Int64(1)), Lit(Value::Int64(2)))->Evaluate(t).value();
  EXPECT_EQ(c.type(), DataType::kFloat64);
  EXPECT_DOUBLE_EQ(c.Float64At(0), 0.5);
}

TEST(ExpressionTest, ComparisonsWithNulls) {
  Table t = TestTable();
  Column eq = Eq(Col("d"), Lit(Value::Int64(1)))->Evaluate(t).value();
  EXPECT_EQ(eq.Int64At(0), 1);
  EXPECT_EQ(eq.Int64At(1), 0);
  EXPECT_TRUE(eq.IsNull(2));  // NULL = 1 is UNKNOWN
  Column lt = Lt(Col("a"), Lit(Value::Float64(5.0)))->Evaluate(t).value();
  EXPECT_EQ(lt.Int64At(0), 0);
  EXPECT_EQ(lt.Int64At(1), 1);
  EXPECT_EQ(lt.Int64At(2), 1);
}

TEST(ExpressionTest, StringComparisons) {
  Table t = TestTable();
  Column eq = Eq(Col("s"), Lit(Value::String("x")))->Evaluate(t).value();
  EXPECT_EQ(eq.Int64At(0), 1);
  EXPECT_EQ(eq.Int64At(1), 0);
  EXPECT_EQ(eq.Int64At(2), 1);
  EXPECT_EQ(Eq(Col("s"), Col("d"))->Evaluate(t).status().code(),
            StatusCode::kTypeMismatch);
}

TEST(ExpressionTest, AllComparisonOps) {
  Table t = TestTable();
  EXPECT_EQ(Ne(Col("d"), Lit(Value::Int64(1)))->Evaluate(t).value().Int64At(1), 1);
  EXPECT_EQ(Le(Col("d"), Lit(Value::Int64(1)))->Evaluate(t).value().Int64At(0), 1);
  EXPECT_EQ(Gt(Col("d"), Lit(Value::Int64(1)))->Evaluate(t).value().Int64At(1), 1);
  EXPECT_EQ(Ge(Col("d"), Lit(Value::Int64(2)))->Evaluate(t).value().Int64At(1), 1);
}

TEST(ExpressionTest, ThreeValuedLogic) {
  Table t = TestTable();
  ExprPtr unknown = Eq(Col("d"), Lit(Value::Int64(1)));  // UNKNOWN on row 2
  ExprPtr truth = Lit(Value::Int64(1));
  ExprPtr falsity = Lit(Value::Int64(0));
  // UNKNOWN AND FALSE = FALSE.
  Column c1 = And(unknown, falsity)->Evaluate(t).value();
  EXPECT_EQ(c1.Int64At(2), 0);
  // UNKNOWN AND TRUE = UNKNOWN.
  Column c2 = And(unknown, truth)->Evaluate(t).value();
  EXPECT_TRUE(c2.IsNull(2));
  // UNKNOWN OR TRUE = TRUE.
  Column c3 = Or(unknown, truth)->Evaluate(t).value();
  EXPECT_EQ(c3.Int64At(2), 1);
  // UNKNOWN OR FALSE = UNKNOWN.
  Column c4 = Or(unknown, falsity)->Evaluate(t).value();
  EXPECT_TRUE(c4.IsNull(2));
  // NOT UNKNOWN = UNKNOWN.
  Column c5 = Not(unknown)->Evaluate(t).value();
  EXPECT_TRUE(c5.IsNull(2));
  EXPECT_EQ(c5.Int64At(0), 0);
}

TEST(ExpressionTest, IsNull) {
  Table t = TestTable();
  Column c = IsNull(Col("d"))->Evaluate(t).value();
  EXPECT_EQ(c.Int64At(0), 0);
  EXPECT_EQ(c.Int64At(2), 1);
  Column n = Not(IsNull(Col("d")))->Evaluate(t).value();
  EXPECT_EQ(n.Int64At(2), 0);
}

TEST(ExpressionTest, AndAllEmptyIsTrue) {
  Table t = TestTable();
  Column c = AndAll({})->Evaluate(t).value();
  EXPECT_EQ(c.Int64At(0), 1);
}

TEST(ExpressionTest, CaseWhenFirstMatchWins) {
  Table t = TestTable();
  ExprPtr e = CaseWhen(
      {{Ge(Col("a"), Lit(Value::Float64(5.0))), Lit(Value::Int64(1))},
       {Ge(Col("a"), Lit(Value::Float64(0.0))), Lit(Value::Int64(2))}},
      Lit(Value::Int64(3)));
  Column c = e->Evaluate(t).value();
  EXPECT_EQ(c.Int64At(0), 1);  // 10 >= 5
  EXPECT_EQ(c.Int64At(1), 2);  // 0 >= 0
  EXPECT_EQ(c.Int64At(2), 2);  // 4 >= 0
}

TEST(ExpressionTest, CaseWhenElseNullDefault) {
  Table t = TestTable();
  ExprPtr e = CaseWhen({{Eq(Col("d"), Lit(Value::Int64(1))), Col("a")}},
                       nullptr);
  Column c = e->Evaluate(t).value();
  EXPECT_DOUBLE_EQ(c.Float64At(0), 10.0);
  EXPECT_TRUE(c.IsNull(1));
  EXPECT_TRUE(c.IsNull(2));  // UNKNOWN condition does not match
}

TEST(ExpressionTest, CaseWhenTypeWidening) {
  Table t = TestTable();
  ExprPtr e = CaseWhen({{Eq(Col("d"), Lit(Value::Int64(1))),
                         Lit(Value::Int64(1))}},
                       Lit(Value::Float64(0.5)));
  EXPECT_EQ(e->ResultType(t.schema()).value(), DataType::kFloat64);
  Column c = e->Evaluate(t).value();
  EXPECT_DOUBLE_EQ(c.Float64At(0), 1.0);
  EXPECT_DOUBLE_EQ(c.Float64At(1), 0.5);
}

TEST(ExpressionTest, CaseWhenMixedStringNumericRejected) {
  Table t = TestTable();
  ExprPtr e = CaseWhen({{Eq(Col("d"), Lit(Value::Int64(1))), Col("s")}},
                       Lit(Value::Int64(0)));
  EXPECT_EQ(e->ResultType(t.schema()).status().code(),
            StatusCode::kTypeMismatch);
}

TEST(ExpressionTest, ToStringRendersSql) {
  ExprPtr e = CaseWhen({{Ne(Col("tot"), Lit(Value::Int64(0))),
                         Div(Col("a"), Col("tot"))}},
                       nullptr);
  EXPECT_EQ(e->ToString(),
            "CASE WHEN tot <> 0 THEN (a / tot) END");
  EXPECT_EQ(And(Eq(Col("x"), Lit(Value::Int64(1))), IsNull(Col("y")))->ToString(),
            "(x = 1 AND y IS NULL)");
}

// 2^53 + 1 has no double: comparing two INT64s through double made
// 9007199254740993 = 9007199254740992 true.
TEST(ExpressionTest, Int64ComparisonsAreExactBeyondTwoToThe53) {
  const int64_t big = int64_t{1} << 53;
  Table t(Schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}}));
  t.AppendRow({Value::Int64(big), Value::Int64(big + 1)});
  t.AppendRow({Value::Int64(big + 1), Value::Int64(big + 1)});
  // Column vs literal (the mask kernel), either way round.
  Column eq = Eq(Col("a"), Lit(Value::Int64(big + 1)))->Evaluate(t).value();
  EXPECT_EQ(eq.Int64At(0), 0);
  EXPECT_EQ(eq.Int64At(1), 1);
  Column gt = Gt(Lit(Value::Int64(big + 1)), Col("a"))->Evaluate(t).value();
  EXPECT_EQ(gt.Int64At(0), 1);
  EXPECT_EQ(gt.Int64At(1), 0);
  // Column vs column (the generic path).
  Column same = Eq(Col("a"), Col("b"))->Evaluate(t).value();
  EXPECT_EQ(same.Int64At(0), 0);
  EXPECT_EQ(same.Int64At(1), 1);
  Column lt = Lt(Col("a"), Col("b"))->Evaluate(t).value();
  EXPECT_EQ(lt.Int64At(0), 1);
  EXPECT_EQ(lt.Int64At(1), 0);
  // INT64 against FLOAT64 still compares as doubles.
  Column mixed =
      Eq(Col("a"), Lit(Value::Float64(static_cast<double>(big))))->Evaluate(t)
          .value();
  EXPECT_EQ(mixed.Int64At(0), 1);
  EXPECT_EQ(mixed.Int64At(1), 1);
}

TEST(ExpressionTest, PredicateMaskNamesItsEvaluator) {
  Table t = TestTable();
  auto evaluator = [&t](const ExprPtr& e) {
    return PredicateMask::Bind(*e, t).value().evaluator();
  };
  EXPECT_EQ(evaluator(Or(Eq(Col("s"), Lit(Value::String("x"))),
                         Not(IsNull(Col("d"))))),
            "mask kernel");
  EXPECT_EQ(evaluator(Gt(Mul(Col("a"), Lit(Value::Int64(2))),
                         Lit(Value::Int64(10)))),
            "generic fallback");
  EXPECT_EQ(evaluator(And(Eq(Col("d"), Col("d")),
                          Lt(Col("a"), Lit(Value::Float64(5.0))))),
            "mask kernel+generic fallback");
  EXPECT_EQ(PredicateMask::Bind(*Col("a"), t).status().code(),
            StatusCode::kTypeMismatch);
  EXPECT_EQ(PredicateMask::Bind(*And(Col("s"), Col("d")), t).status().code(),
            StatusCode::kTypeMismatch);
}

// --- Predicate mask kernel against a row-at-a-time oracle --------------------

// SQL truth values as the oracle writes them.
enum Truth { kF = 0, kU = 1, kT = 2 };

// Random tables: i and j INT64 (NULLs, values straddling 2^53), f FLOAT64
// (NULLs, integral and fractional values), s a dictionary string (NULLs),
// flag an INT64 boolean (NULLs).
Table RandomTable(Rng* rng, size_t n) {
  const int64_t big = int64_t{1} << 53;
  static const char* kWords[] = {"ant", "bee", "cat", "dog", "eel"};
  Table t(Schema({{"i", DataType::kInt64},
                  {"j", DataType::kInt64},
                  {"f", DataType::kFloat64},
                  {"s", DataType::kString},
                  {"flag", DataType::kInt64}}));
  auto int_value = [&]() {
    if (rng->Uniform(7) == 0) return Value::Null();
    const int64_t base = rng->Uniform(2) == 0 ? big : 0;
    return Value::Int64(base + rng->UniformRange(-3, 3));
  };
  for (size_t r = 0; r < n; ++r) {
    Value f = rng->Uniform(7) == 0
                  ? Value::Null()
                  : Value::Float64(rng->Uniform(2) == 0
                                       ? static_cast<double>(
                                             rng->UniformRange(-3, 3))
                                       : rng->NextDouble() * 6.0 - 3.0);
    Value s = rng->Uniform(7) == 0
                  ? Value::Null()
                  : Value::String(kWords[rng->Uniform(4)]);  // never "eel"
    Value flag = rng->Uniform(5) == 0
                     ? Value::Null()
                     : Value::Int64(static_cast<int64_t>(rng->Uniform(2)));
    t.AppendRow({int_value(), int_value(), f, s, flag});
  }
  return t;
}

struct OraclePredicate {
  ExprPtr expr;
  std::vector<Truth> truth;  // expected, per row
};

Truth Compare(char op, int sign) {
  switch (op) {
    case '=':
      return sign == 0 ? kT : kF;
    case '!':
      return sign != 0 ? kT : kF;
    case '<':
      return sign < 0 ? kT : kF;
    case 'l':
      return sign <= 0 ? kT : kF;
    case '>':
      return sign > 0 ? kT : kF;
    default:
      return sign >= 0 ? kT : kF;
  }
}

// Three-way comparison of two non-NULL values the way SQL here defines it:
// strings by bytes, INT64 with INT64 exactly, any other numeric pair as
// doubles.
int Sign(const Value& a, const Value& b) {
  if (a.is_string()) {
    return a.string() < b.string() ? -1 : (b.string() < a.string() ? 1 : 0);
  }
  if (a.is_int64() && b.is_int64()) {
    return a.int64() < b.int64() ? -1 : (b.int64() < a.int64() ? 1 : 0);
  }
  const double x = a.AsDouble(), y = b.AsDouble();
  return x < y ? -1 : (y < x ? 1 : 0);
}

ExprPtr MakeCompare(char op, ExprPtr l, ExprPtr r) {
  switch (op) {
    case '=':
      return Eq(std::move(l), std::move(r));
    case '!':
      return Ne(std::move(l), std::move(r));
    case '<':
      return Lt(std::move(l), std::move(r));
    case 'l':
      return Le(std::move(l), std::move(r));
    case '>':
      return Gt(std::move(l), std::move(r));
    default:
      return Ge(std::move(l), std::move(r));
  }
}

OraclePredicate RandomLeaf(Rng* rng, const Table& t) {
  const size_t n = t.num_rows();
  static const char kOps[] = {'=', '!', '<', 'l', '>', 'g'};
  const char op = kOps[rng->Uniform(6)];
  OraclePredicate p;
  p.truth.resize(n);
  auto compare_rows = [&](const std::string& col, const Value& lit,
                          bool lit_left) {
    const Column& c = *t.ColumnByName(col).value();
    for (size_t r = 0; r < n; ++r) {
      const Value v = c.GetValue(r);
      if (v.is_null() || lit.is_null()) {
        p.truth[r] = kU;
      } else {
        p.truth[r] = Compare(op, lit_left ? Sign(lit, v) : Sign(v, lit));
      }
    }
  };
  const int64_t big = int64_t{1} << 53;
  switch (rng->Uniform(7)) {
    case 0:
    case 1: {  // numeric column vs literal, either side, maybe negated/NULL
      const std::string col = rng->Uniform(3) == 0 ? "f" : "i";
      Value lit;
      ExprPtr lit_expr;
      switch (rng->Uniform(5)) {
        case 0:
          lit = Value::Int64(big + rng->UniformRange(-2, 2));
          lit_expr = Lit(lit);
          break;
        case 1: {  // a negative literal parses as 0 - k
          const int64_t k = rng->UniformRange(0, 3);
          lit = Value::Int64(-k);
          lit_expr = Sub(Lit(Value::Int64(0)), Lit(Value::Int64(k)));
          break;
        }
        case 2:
          lit = Value::Float64(rng->NextDouble() * 6.0 - 3.0);
          lit_expr = Lit(lit);
          break;
        case 3:
          lit = Value::Null();
          lit_expr = NullLit(DataType::kFloat64);
          break;
        default:
          lit = Value::Int64(rng->UniformRange(-3, 3));
          lit_expr = Lit(lit);
          break;
      }
      const bool lit_left = rng->Uniform(2) == 0;
      compare_rows(col, lit, lit_left);
      p.expr = lit_left ? MakeCompare(op, lit_expr, Col(col))
                        : MakeCompare(op, Col(col), lit_expr);
      return p;
    }
    case 2: {  // dictionary string vs literal, present or absent
      static const char* kLits[] = {"ant", "bee", "cow", "dog", "eel", ""};
      const Value lit = Value::String(kLits[rng->Uniform(6)]);
      const bool lit_left = rng->Uniform(2) == 0;
      compare_rows("s", lit, lit_left);
      p.expr = lit_left ? MakeCompare(op, Lit(lit), Col("s"))
                        : MakeCompare(op, Col("s"), Lit(lit));
      return p;
    }
    case 3: {  // column vs column: the generic path
      const Column& i = *t.ColumnByName("i").value();
      const Column& j = *t.ColumnByName("j").value();
      for (size_t r = 0; r < n; ++r) {
        const Value a = i.GetValue(r), b = j.GetValue(r);
        p.truth[r] = a.is_null() || b.is_null() ? kU : Compare(op, Sign(a, b));
      }
      p.expr = MakeCompare(op, Col("i"), Col("j"));
      return p;
    }
    case 4: {  // arithmetic on the column side: the generic path
      const Column& f = *t.ColumnByName("f").value();
      for (size_t r = 0; r < n; ++r) {
        const Value v = f.GetValue(r);
        p.truth[r] = v.is_null() ? kU
                                 : Compare(op, Sign(Value::Float64(
                                                        v.float64() * 2.0),
                                                    Value::Int64(1)));
      }
      p.expr = MakeCompare(op, Mul(Col("f"), Lit(Value::Int64(2))),
                           Lit(Value::Int64(1)));
      return p;
    }
    case 5: {  // IS NULL of a column
      static const char* kCols[] = {"i", "f", "s"};
      const std::string col = kCols[rng->Uniform(3)];
      const Column& c = *t.ColumnByName(col).value();
      for (size_t r = 0; r < n; ++r) p.truth[r] = c.IsNull(r) ? kT : kF;
      p.expr = IsNull(Col(col));
      return p;
    }
    default: {  // a bare boolean column
      const Column& c = *t.ColumnByName("flag").value();
      for (size_t r = 0; r < n; ++r) {
        p.truth[r] = c.IsNull(r) ? kU : (c.Int64At(r) != 0 ? kT : kF);
      }
      p.expr = Col("flag");
      return p;
    }
  }
}

OraclePredicate RandomPredicate(Rng* rng, const Table& t, int depth) {
  if (depth == 0 || rng->Uniform(3) == 0) return RandomLeaf(rng, t);
  const size_t n = t.num_rows();
  OraclePredicate a = RandomPredicate(rng, t, depth - 1);
  OraclePredicate p;
  p.truth.resize(n);
  switch (rng->Uniform(4)) {
    case 0:
    case 1: {
      const bool is_and = rng->Uniform(2) == 0;
      OraclePredicate b = RandomPredicate(rng, t, depth - 1);
      for (size_t r = 0; r < n; ++r) {
        const Truth x = a.truth[r], y = b.truth[r];
        if (is_and) {
          p.truth[r] = x == kF || y == kF ? kF : (x == kT && y == kT ? kT : kU);
        } else {
          p.truth[r] = x == kT || y == kT ? kT : (x == kF && y == kF ? kF : kU);
        }
      }
      p.expr = is_and ? And(a.expr, b.expr) : Or(a.expr, b.expr);
      return p;
    }
    case 2:
      for (size_t r = 0; r < n; ++r) {
        p.truth[r] = a.truth[r] == kU ? kU : (a.truth[r] == kT ? kF : kT);
      }
      p.expr = Not(a.expr);
      return p;
    default:
      for (size_t r = 0; r < n; ++r) p.truth[r] = a.truth[r] == kU ? kT : kF;
      p.expr = IsNull(a.expr);
      return p;
  }
}

TEST(PredicateMaskTest, MatchesRowAtATimeOracleOnRandomTables) {
  Rng rng(20041001);
  for (int trial = 0; trial < 400; ++trial) {
    const size_t n = rng.Uniform(300);
    const Table t = RandomTable(&rng, n);
    const OraclePredicate p = RandomPredicate(&rng, t, 4);
    SCOPED_TRACE("trial " + std::to_string(trial) + " rows " +
                 std::to_string(n) + ": " + p.expr->ToString());
    Result<PredicateMask> mask = PredicateMask::Bind(*p.expr, t);
    ASSERT_TRUE(mask.ok()) << mask.status().ToString();

    // Selection over uneven "morsels", as the fused scan and Filter run it.
    std::vector<uint32_t> got;
    std::vector<uint8_t> scratch;
    for (size_t begin = 0; begin < n;) {
      const size_t end = std::min(n, begin + 1 + rng.Uniform(70));
      std::vector<uint32_t> sel(end - begin);
      sel.resize(mask->Select(begin, end, sel.data(), &scratch));
      got.insert(got.end(), sel.begin(), sel.end());
      begin = end;
    }
    std::vector<uint32_t> want;
    for (size_t r = 0; r < n; ++r) {
      if (p.truth[r] == kT) want.push_back(static_cast<uint32_t>(r));
    }
    EXPECT_EQ(got, want);

    // The boolean column, through the mask and through Evaluate.
    for (const Column& c : {mask->ToColumn(), p.expr->Evaluate(t).value()}) {
      ASSERT_EQ(c.size(), n);
      for (size_t r = 0; r < n; ++r) {
        const Truth have = c.IsNull(r) ? kU : (c.Int64At(r) != 0 ? kT : kF);
        ASSERT_EQ(have, p.truth[r]) << "row " << r;
      }
    }
  }
}

TEST(ExpressionTest, EvaluateOnEmptyTable) {
  Table t(Schema({{"d", DataType::kInt64}}));
  Column c = Add(Col("d"), Lit(Value::Int64(1)))->Evaluate(t).value();
  EXPECT_EQ(c.size(), 0u);
}

}  // namespace
}  // namespace pctagg
