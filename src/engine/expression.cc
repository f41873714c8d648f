#include "engine/expression.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <optional>

#include "common/cpu.h"
#include "common/string_util.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace pctagg {

namespace {

// Widens INT64/FLOAT64 pairs; errors on strings in arithmetic.
Result<DataType> NumericResultType(DataType l, DataType r, const char* op) {
  if (l == DataType::kString || r == DataType::kString) {
    return Status::TypeMismatch(std::string("operator ") + op +
                                " requires numeric operands");
  }
  if (l == DataType::kFloat64 || r == DataType::kFloat64) {
    return DataType::kFloat64;
  }
  return DataType::kInt64;
}

class LiteralExpr : public Expression {
 public:
  LiteralExpr(Value v, DataType type) : value_(std::move(v)), type_(type) {}

  Result<DataType> ResultType(const Schema&) const override { return type_; }

  // One broadcast fill; a string literal is interned once, not per row.
  Result<Column> Evaluate(const Table& table) const override {
    const size_t n = table.num_rows();
    std::vector<uint8_t> validity(n, value_.is_null() ? 0 : 1);
    switch (type_) {
      case DataType::kInt64:
        return Column::FromInt64(
            std::vector<int64_t>(n, value_.is_null() ? 0 : value_.int64()),
            std::move(validity));
      case DataType::kFloat64:
        return Column::FromFloat64(
            std::vector<double>(n, value_.is_null() ? 0.0 : value_.AsDouble()),
            std::move(validity));
      case DataType::kString: {
        auto dict = std::make_shared<Dictionary>();
        const uint32_t code =
            value_.is_null() ? 0 : dict->GetOrAdd(value_.string());
        return Column::FromCodes(std::vector<uint32_t>(n, code),
                                 std::move(validity), std::move(dict));
      }
    }
    return Status::Internal("unknown literal type");
  }

  std::string ToString() const override { return value_.ToString(); }

  const Value& value() const { return value_; }

 private:
  Value value_;
  DataType type_;
};

class ColumnRefExpr : public Expression {
 public:
  explicit ColumnRefExpr(std::string name) : name_(std::move(name)) {}

  Result<DataType> ResultType(const Schema& schema) const override {
    PCTAGG_ASSIGN_OR_RETURN(size_t idx, schema.FindColumn(name_));
    return schema.column(idx).type;
  }

  Result<Column> Evaluate(const Table& table) const override {
    PCTAGG_ASSIGN_OR_RETURN(const Column* col, table.ColumnByName(name_));
    return *col;  // copy; callers own their outputs
  }

  std::string ToString() const override { return name_; }

  const std::string& name() const { return name_; }

 private:
  std::string name_;
};

enum class ArithOp { kAdd, kSub, kMul, kDiv };

const char* ArithOpName(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
  }
  return "?";
}

class ArithExpr : public Expression {
 public:
  ArithExpr(ArithOp op, ExprPtr l, ExprPtr r)
      : op_(op), left_(std::move(l)), right_(std::move(r)) {}

  Result<DataType> ResultType(const Schema& schema) const override {
    PCTAGG_ASSIGN_OR_RETURN(DataType lt, left_->ResultType(schema));
    PCTAGG_ASSIGN_OR_RETURN(DataType rt, right_->ResultType(schema));
    if (op_ == ArithOp::kDiv) {
      // Division always produces FLOAT64 (percentages are fractions).
      if (lt == DataType::kString || rt == DataType::kString) {
        return Status::TypeMismatch("operator / requires numeric operands");
      }
      return DataType::kFloat64;
    }
    return NumericResultType(lt, rt, ArithOpName(op_));
  }

  Result<Column> Evaluate(const Table& table) const override {
    PCTAGG_ASSIGN_OR_RETURN(DataType out_type, ResultType(table.schema()));
    PCTAGG_ASSIGN_OR_RETURN(Column lc, left_->Evaluate(table));
    PCTAGG_ASSIGN_OR_RETURN(Column rc, right_->Evaluate(table));
    Column out(out_type);
    out.Reserve(table.num_rows());
    const bool int_out = out_type == DataType::kInt64;
    for (size_t i = 0; i < table.num_rows(); ++i) {
      if (lc.IsNull(i) || rc.IsNull(i)) {
        out.AppendNull();
        continue;
      }
      if (int_out) {
        int64_t a = lc.Int64At(i);
        int64_t b = rc.Int64At(i);
        switch (op_) {
          case ArithOp::kAdd:
            out.AppendInt64(a + b);
            break;
          case ArithOp::kSub:
            out.AppendInt64(a - b);
            break;
          case ArithOp::kMul:
            out.AppendInt64(a * b);
            break;
          case ArithOp::kDiv:
            assert(false && "integer division routed to FLOAT64");
            break;
        }
      } else {
        double a = lc.NumericAt(i);
        double b = rc.NumericAt(i);
        switch (op_) {
          case ArithOp::kAdd:
            out.AppendFloat64(a + b);
            break;
          case ArithOp::kSub:
            out.AppendFloat64(a - b);
            break;
          case ArithOp::kMul:
            out.AppendFloat64(a * b);
            break;
          case ArithOp::kDiv:
            // NULL on zero divisor: the engine-level safety net matching
            // Vpct()'s "result is NULL when dividing by zero". Adding +0.0
            // turns a zero quotient's sign (0 over a negative total) into +0
            // and leaves every other quotient unchanged, so all percentage
            // strategies agree bit for bit.
            if (b == 0.0) {
              out.AppendNull();
            } else {
              out.AppendFloat64(a / b + 0.0);
            }
            break;
        }
      }
    }
    return out;
  }

  std::string ToString() const override {
    return "(" + left_->ToString() + " " + ArithOpName(op_) + " " +
           right_->ToString() + ")";
  }

 private:
  ArithOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "<>";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

// The operator with its operands swapped: `5 < c` is `c > 5`.
CmpOp Mirror(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return CmpOp::kGt;
    case CmpOp::kLe:
      return CmpOp::kGe;
    case CmpOp::kGt:
      return CmpOp::kLt;
    case CmpOp::kGe:
      return CmpOp::kLe;
    default:
      return op;
  }
}

// `a op b` through operator< alone, so doubles follow the engine's three-way
// ordering (a < b ? -1 : a > b ? 1 : 0), NaN included.
template <CmpOp kOp, typename T>
inline bool Holds(T a, T b) {
  if constexpr (kOp == CmpOp::kEq) {
    return !(a < b) && !(b < a);
  } else if constexpr (kOp == CmpOp::kNe) {
    return a < b || b < a;
  } else if constexpr (kOp == CmpOp::kLt) {
    return a < b;
  } else if constexpr (kOp == CmpOp::kLe) {
    return !(b < a);
  } else if constexpr (kOp == CmpOp::kGt) {
    return b < a;
  } else {
    return !(a < b);
  }
}

template <typename T>
bool Holds(CmpOp op, T a, T b) {
  switch (op) {
    case CmpOp::kEq:
      return Holds<CmpOp::kEq>(a, b);
    case CmpOp::kNe:
      return Holds<CmpOp::kNe>(a, b);
    case CmpOp::kLt:
      return Holds<CmpOp::kLt>(a, b);
    case CmpOp::kLe:
      return Holds<CmpOp::kLe>(a, b);
    case CmpOp::kGt:
      return Holds<CmpOp::kGt>(a, b);
    case CmpOp::kGe:
      return Holds<CmpOp::kGe>(a, b);
  }
  return false;
}

// A column-free expression's value (nullopt when it reads a column): it
// typechecks against the empty schema and is evaluated over one row.
std::optional<Value> ConstantValue(const Expression& e) {
  if (!e.ResultType(Schema()).ok()) return std::nullopt;
  Table one(Schema({{"__row", DataType::kInt64}}));
  if (!one.AppendRow({Value::Int64(0)}).ok()) return std::nullopt;
  Result<Column> c = e.Evaluate(one);
  if (!c.ok()) return std::nullopt;
  return c->GetValue(0);
}

class CompareExpr : public Expression {
 public:
  CompareExpr(CmpOp op, ExprPtr l, ExprPtr r)
      : op_(op), left_(std::move(l)), right_(std::move(r)) {}

  Result<DataType> ResultType(const Schema& schema) const override {
    PCTAGG_ASSIGN_OR_RETURN(DataType lt, left_->ResultType(schema));
    PCTAGG_ASSIGN_OR_RETURN(DataType rt, right_->ResultType(schema));
    bool l_str = lt == DataType::kString;
    bool r_str = rt == DataType::kString;
    if (l_str != r_str) {
      return Status::TypeMismatch("cannot compare string with numeric");
    }
    return DataType::kInt64;  // boolean
  }

  // A column compared with a constant, either way round: the shape the
  // predicate mask kernel compiles.
  bool ColumnVsConstant() const {
    return (dynamic_cast<const ColumnRefExpr*>(left_.get()) != nullptr &&
            right_->ResultType(Schema()).ok()) ||
           (dynamic_cast<const ColumnRefExpr*>(right_.get()) != nullptr &&
            left_->ResultType(Schema()).ok());
  }

  Result<Column> Evaluate(const Table& table) const override {
    PCTAGG_RETURN_IF_ERROR(ResultType(table.schema()).status());
    if (ColumnVsConstant()) {
      PCTAGG_ASSIGN_OR_RETURN(PredicateMask mask,
                              PredicateMask::Bind(*this, table));
      return mask.ToColumn();
    }
    PCTAGG_ASSIGN_OR_RETURN(Column lc, left_->Evaluate(table));
    PCTAGG_ASSIGN_OR_RETURN(Column rc, right_->Evaluate(table));
    Column out(DataType::kInt64);
    out.Reserve(table.num_rows());
    const bool strings = lc.type() == DataType::kString;
    const bool ints =
        lc.type() == DataType::kInt64 && rc.type() == DataType::kInt64;
    for (size_t i = 0; i < table.num_rows(); ++i) {
      if (lc.IsNull(i) || rc.IsNull(i)) {
        out.AppendNull();
        continue;
      }
      bool v;
      if (strings) {
        v = Holds(op_, lc.StringAt(i).compare(rc.StringAt(i)), 0);
      } else if (ints) {
        v = Holds(op_, lc.Int64At(i), rc.Int64At(i));  // exact beyond 2^53
      } else {
        v = Holds(op_, lc.NumericAt(i), rc.NumericAt(i));
      }
      out.AppendInt64(v ? 1 : 0);
    }
    return out;
  }

  std::string ToString() const override {
    return left_->ToString() + " " + CmpOpName(op_) + " " + right_->ToString();
  }

  CmpOp op() const { return op_; }
  const Expression& left() const { return *left_; }
  const Expression& right() const { return *right_; }

 private:
  CmpOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

// The boolean connectives evaluate through the predicate mask kernel and
// hand its three-valued result back as a column.
Result<Column> EvaluatePredicate(const Expression& e, const Table& table) {
  PCTAGG_ASSIGN_OR_RETURN(PredicateMask mask, PredicateMask::Bind(e, table));
  return mask.ToColumn();
}

class LogicalExpr : public Expression {
 public:
  LogicalExpr(bool is_and, ExprPtr l, ExprPtr r)
      : is_and_(is_and), left_(std::move(l)), right_(std::move(r)) {}

  Result<DataType> ResultType(const Schema& schema) const override {
    PCTAGG_RETURN_IF_ERROR(left_->ResultType(schema).status());
    PCTAGG_RETURN_IF_ERROR(right_->ResultType(schema).status());
    return DataType::kInt64;
  }

  Result<Column> Evaluate(const Table& table) const override {
    return EvaluatePredicate(*this, table);
  }

  std::string ToString() const override {
    return "(" + left_->ToString() + (is_and_ ? " AND " : " OR ") +
           right_->ToString() + ")";
  }

  bool is_and() const { return is_and_; }
  const Expression& left() const { return *left_; }
  const Expression& right() const { return *right_; }

 private:
  bool is_and_;
  ExprPtr left_;
  ExprPtr right_;
};

class NotExpr : public Expression {
 public:
  explicit NotExpr(ExprPtr e) : expr_(std::move(e)) {}

  Result<DataType> ResultType(const Schema& schema) const override {
    PCTAGG_RETURN_IF_ERROR(expr_->ResultType(schema).status());
    return DataType::kInt64;
  }

  Result<Column> Evaluate(const Table& table) const override {
    return EvaluatePredicate(*this, table);
  }

  std::string ToString() const override {
    return "NOT (" + expr_->ToString() + ")";
  }

  const Expression& operand() const { return *expr_; }

 private:
  ExprPtr expr_;
};

class IsNullExpr : public Expression {
 public:
  explicit IsNullExpr(ExprPtr e) : expr_(std::move(e)) {}

  Result<DataType> ResultType(const Schema& schema) const override {
    PCTAGG_RETURN_IF_ERROR(expr_->ResultType(schema).status());
    return DataType::kInt64;
  }

  Result<Column> Evaluate(const Table& table) const override {
    return EvaluatePredicate(*this, table);
  }

  std::string ToString() const override {
    return expr_->ToString() + " IS NULL";
  }

  const Expression& operand() const { return *expr_; }

 private:
  ExprPtr expr_;
};

class CaseWhenExpr : public Expression {
 public:
  CaseWhenExpr(std::vector<std::pair<ExprPtr, ExprPtr>> branches,
               ExprPtr else_expr)
      : branches_(std::move(branches)), else_expr_(std::move(else_expr)) {}

  Result<DataType> ResultType(const Schema& schema) const override {
    if (branches_.empty()) {
      return Status::InvalidArgument("CASE requires at least one WHEN");
    }
    DataType out = DataType::kInt64;
    bool first = true;
    for (const auto& [cond, result] : branches_) {
      PCTAGG_RETURN_IF_ERROR(cond->ResultType(schema).status());
      PCTAGG_ASSIGN_OR_RETURN(DataType rt, result->ResultType(schema));
      if (first) {
        out = rt;
        first = false;
      } else if (rt != out) {
        // Numeric widening across branches.
        if (rt == DataType::kString || out == DataType::kString) {
          return Status::TypeMismatch("CASE branches mix string and numeric");
        }
        out = DataType::kFloat64;
      }
    }
    if (else_expr_ != nullptr) {
      PCTAGG_ASSIGN_OR_RETURN(DataType et, else_expr_->ResultType(schema));
      if (et != out) {
        if (et == DataType::kString || out == DataType::kString) {
          return Status::TypeMismatch("CASE branches mix string and numeric");
        }
        out = DataType::kFloat64;
      }
    }
    return out;
  }

  Result<Column> Evaluate(const Table& table) const override {
    PCTAGG_ASSIGN_OR_RETURN(DataType out_type, ResultType(table.schema()));
    size_t n = table.num_rows();
    // Evaluate all branch conditions and results. This deliberately performs
    // the O(N)-per-row work the paper criticizes; the optimized hash-dispatch
    // path lives in the pivot operator.
    std::vector<Column> conds;
    std::vector<Column> results;
    conds.reserve(branches_.size());
    results.reserve(branches_.size());
    for (const auto& [cond, result] : branches_) {
      PCTAGG_ASSIGN_OR_RETURN(Column c, cond->Evaluate(table));
      PCTAGG_ASSIGN_OR_RETURN(Column r, result->Evaluate(table));
      conds.push_back(std::move(c));
      results.push_back(std::move(r));
    }
    Column else_col(out_type);
    bool has_else = else_expr_ != nullptr;
    if (has_else) {
      PCTAGG_ASSIGN_OR_RETURN(else_col, else_expr_->Evaluate(table));
    }
    Column out(out_type);
    out.Reserve(n);
    // Select straight from the typed branch columns — no per-row boxing.
    // This loop is the inner kernel of the generated N-column CASE pivots.
    auto append_from = [&out, out_type](const Column& src, size_t i) {
      if (src.IsNull(i)) {
        out.AppendNull();
      } else if (out_type == DataType::kString) {
        out.AppendString(src.StringAt(i));
      } else if (out_type == DataType::kInt64) {
        out.AppendInt64(src.Int64At(i));
      } else {
        out.AppendFloat64(src.NumericAt(i));
      }
    };
    for (size_t i = 0; i < n; ++i) {
      bool matched = false;
      for (size_t b = 0; b < conds.size(); ++b) {
        if (!conds[b].IsNull(i) && conds[b].Int64At(i) != 0) {
          append_from(results[b], i);
          matched = true;
          break;
        }
      }
      if (!matched) {
        if (has_else) {
          append_from(else_col, i);
        } else {
          out.AppendNull();
        }
      }
    }
    return out;
  }

  std::string ToString() const override {
    std::string out = "CASE";
    for (const auto& [cond, result] : branches_) {
      out += " WHEN " + cond->ToString() + " THEN " + result->ToString();
    }
    if (else_expr_ != nullptr) out += " ELSE " + else_expr_->ToString();
    out += " END";
    return out;
  }

 private:
  std::vector<std::pair<ExprPtr, ExprPtr>> branches_;
  ExprPtr else_expr_;  // may be null (ELSE NULL)
};

class CoalesceExpr : public Expression {
 public:
  explicit CoalesceExpr(std::vector<ExprPtr> args) : args_(std::move(args)) {}

  Result<DataType> ResultType(const Schema& schema) const override {
    if (args_.empty()) {
      return Status::InvalidArgument("COALESCE requires arguments");
    }
    DataType out = DataType::kInt64;
    bool first = true;
    for (const ExprPtr& a : args_) {
      PCTAGG_ASSIGN_OR_RETURN(DataType t, a->ResultType(schema));
      if (first) {
        out = t;
        first = false;
      } else if (t != out) {
        if (t == DataType::kString || out == DataType::kString) {
          return Status::TypeMismatch("COALESCE arguments mix string/numeric");
        }
        out = DataType::kFloat64;
      }
    }
    return out;
  }

  Result<Column> Evaluate(const Table& table) const override {
    PCTAGG_ASSIGN_OR_RETURN(DataType out_type, ResultType(table.schema()));
    std::vector<Column> cols;
    cols.reserve(args_.size());
    for (const ExprPtr& a : args_) {
      PCTAGG_ASSIGN_OR_RETURN(Column c, a->Evaluate(table));
      cols.push_back(std::move(c));
    }
    Column out(out_type);
    out.Reserve(table.num_rows());
    for (size_t i = 0; i < table.num_rows(); ++i) {
      bool done = false;
      for (const Column& c : cols) {
        if (c.IsNull(i)) continue;
        if (out_type == DataType::kString) {
          out.AppendString(c.StringAt(i));
        } else if (out_type == DataType::kInt64) {
          out.AppendInt64(c.Int64At(i));
        } else {
          out.AppendFloat64(c.NumericAt(i));
        }
        done = true;
        break;
      }
      if (!done) out.AppendNull();
    }
    return out;
  }

  std::string ToString() const override {
    std::vector<std::string> parts;
    parts.reserve(args_.size());
    for (const ExprPtr& a : args_) parts.push_back(a->ToString());
    return "COALESCE(" + Join(parts, ", ") + ")";
  }

 private:
  std::vector<ExprPtr> args_;
};

class AbsExpr : public Expression {
 public:
  explicit AbsExpr(ExprPtr e) : expr_(std::move(e)) {}

  Result<DataType> ResultType(const Schema& schema) const override {
    PCTAGG_ASSIGN_OR_RETURN(DataType t, expr_->ResultType(schema));
    if (t == DataType::kString) {
      return Status::TypeMismatch("ABS requires a numeric argument");
    }
    return t;
  }

  Result<Column> Evaluate(const Table& table) const override {
    PCTAGG_ASSIGN_OR_RETURN(DataType out_type, ResultType(table.schema()));
    PCTAGG_ASSIGN_OR_RETURN(Column c, expr_->Evaluate(table));
    Column out(out_type);
    out.Reserve(table.num_rows());
    for (size_t i = 0; i < c.size(); ++i) {
      if (c.IsNull(i)) {
        out.AppendNull();
      } else if (out_type == DataType::kInt64) {
        int64_t v = c.Int64At(i);
        out.AppendInt64(v < 0 ? -v : v);
      } else {
        out.AppendFloat64(std::fabs(c.NumericAt(i)));
      }
    }
    return out;
  }

  std::string ToString() const override {
    return "ABS(" + expr_->ToString() + ")";
  }

 private:
  ExprPtr expr_;
};

class RoundExpr : public Expression {
 public:
  RoundExpr(ExprPtr e, int digits) : expr_(std::move(e)), digits_(digits) {}

  Result<DataType> ResultType(const Schema& schema) const override {
    PCTAGG_ASSIGN_OR_RETURN(DataType t, expr_->ResultType(schema));
    if (t == DataType::kString) {
      return Status::TypeMismatch("ROUND requires a numeric argument");
    }
    return DataType::kFloat64;
  }

  Result<Column> Evaluate(const Table& table) const override {
    PCTAGG_RETURN_IF_ERROR(ResultType(table.schema()).status());
    PCTAGG_ASSIGN_OR_RETURN(Column c, expr_->Evaluate(table));
    const double scale = std::pow(10.0, digits_);
    Column out(DataType::kFloat64);
    out.Reserve(table.num_rows());
    for (size_t i = 0; i < c.size(); ++i) {
      if (c.IsNull(i)) {
        out.AppendNull();
      } else {
        out.AppendFloat64(std::round(c.NumericAt(i) * scale) / scale);
      }
    }
    return out;
  }

  std::string ToString() const override {
    return "ROUND(" + expr_->ToString() + ", " + std::to_string(digits_) + ")";
  }

 private:
  ExprPtr expr_;
  int digits_;
};

// -- Predicate mask kernels ----------------------------------------------------

// SQL truth values, one byte per row: AND is min, OR is max, NOT is 2 - x.
constexpr uint8_t kFalse = 0;
constexpr uint8_t kUnknown = 1;
constexpr uint8_t kTrue = 2;

enum class MaskKind : uint8_t {
  kConst,          // every row is `constant`
  kTruth,          // INT64 column read as a boolean: nonzero is TRUE
  kIsNull,         // TRUE where the column is NULL, else FALSE
  kCmpInt,         // INT64 column op INT64 literal, exact
  kCmpFloat,       // FLOAT64 column op literal, as doubles
  kCmpIntAsFloat,  // INT64 column op FLOAT64 literal, as doubles
  kCmpCode,        // string column: the truth of each dictionary code
  kAnd,
  kOr,
  kNot,
  kIsUnknown,  // IS NULL of a boolean subtree: TRUE where it is UNKNOWN
};

template <CmpOp kOp, typename T, typename L>
void CompareLoop(const T* data, const uint8_t* valid, L literal, size_t n,
                 uint8_t* out) {
  for (size_t i = 0; i < n; ++i) {
    const uint8_t t =
        Holds<kOp>(static_cast<L>(data[i]), literal) ? kTrue : kFalse;
    out[i] = valid[i] != 0 ? t : kUnknown;
  }
}

// `column op literal` over n rows, one typed loop per operator.
template <typename T, typename L>
void CompareRows(CmpOp op, const T* data, const uint8_t* valid, L literal,
                 size_t n, uint8_t* out) {
  switch (op) {
    case CmpOp::kEq:
      return CompareLoop<CmpOp::kEq>(data, valid, literal, n, out);
    case CmpOp::kNe:
      return CompareLoop<CmpOp::kNe>(data, valid, literal, n, out);
    case CmpOp::kLt:
      return CompareLoop<CmpOp::kLt>(data, valid, literal, n, out);
    case CmpOp::kLe:
      return CompareLoop<CmpOp::kLe>(data, valid, literal, n, out);
    case CmpOp::kGt:
      return CompareLoop<CmpOp::kGt>(data, valid, literal, n, out);
    case CmpOp::kGe:
      return CompareLoop<CmpOp::kGe>(data, valid, literal, n, out);
  }
}

// Compacts the TRUE rows of `truth[0, n)` into absolute row ids base + i.
// The SSE2 path (baseline on x86-64, still behind the runtime SIMD switch so
// PCTAGG_DISABLE_SIMD covers the scalar loop) classifies 16 rows per
// movemask: blocks with no TRUE row are skipped and all-TRUE blocks append 16
// consecutive rows without per-row branches.
size_t CompactTrue(const uint8_t* truth, size_t n, size_t base,
                   uint32_t* sel) {
  size_t out = 0;
  size_t i = 0;
#if defined(__x86_64__)
  if (SimdEnabled()) {
    const __m128i want = _mm_set1_epi8(static_cast<char>(kTrue));
    for (; i + 16 <= n; i += 16) {
      const __m128i block =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(truth + i));
      int hits = _mm_movemask_epi8(_mm_cmpeq_epi8(block, want));
      if (hits == 0) continue;
      const uint32_t row = static_cast<uint32_t>(base + i);
      if (hits == 0xFFFF) {
        for (uint32_t k = 0; k < 16; ++k) sel[out++] = row + k;
        continue;
      }
      while (hits != 0) {
        sel[out++] = row + static_cast<uint32_t>(__builtin_ctz(hits));
        hits &= hits - 1;
      }
    }
  }
#endif
  for (; i < n; ++i) {
    if (truth[i] == kTrue) sel[out++] = static_cast<uint32_t>(base + i);
  }
  return out;
}

}  // namespace

ExprPtr Lit(Value v) {
  DataType type = DataType::kInt64;
  if (v.is_float64()) type = DataType::kFloat64;
  if (v.is_string()) type = DataType::kString;
  return std::make_shared<LiteralExpr>(std::move(v), type);
}

ExprPtr NullLit(DataType type) {
  return std::make_shared<LiteralExpr>(Value::Null(), type);
}

ExprPtr Col(std::string name) {
  return std::make_shared<ColumnRefExpr>(std::move(name));
}

ExprPtr Add(ExprPtr l, ExprPtr r) {
  return std::make_shared<ArithExpr>(ArithOp::kAdd, std::move(l), std::move(r));
}
ExprPtr Sub(ExprPtr l, ExprPtr r) {
  return std::make_shared<ArithExpr>(ArithOp::kSub, std::move(l), std::move(r));
}
ExprPtr Mul(ExprPtr l, ExprPtr r) {
  return std::make_shared<ArithExpr>(ArithOp::kMul, std::move(l), std::move(r));
}
ExprPtr Div(ExprPtr l, ExprPtr r) {
  return std::make_shared<ArithExpr>(ArithOp::kDiv, std::move(l), std::move(r));
}

ExprPtr Eq(ExprPtr l, ExprPtr r) {
  return std::make_shared<CompareExpr>(CmpOp::kEq, std::move(l), std::move(r));
}
ExprPtr Ne(ExprPtr l, ExprPtr r) {
  return std::make_shared<CompareExpr>(CmpOp::kNe, std::move(l), std::move(r));
}
ExprPtr Lt(ExprPtr l, ExprPtr r) {
  return std::make_shared<CompareExpr>(CmpOp::kLt, std::move(l), std::move(r));
}
ExprPtr Le(ExprPtr l, ExprPtr r) {
  return std::make_shared<CompareExpr>(CmpOp::kLe, std::move(l), std::move(r));
}
ExprPtr Gt(ExprPtr l, ExprPtr r) {
  return std::make_shared<CompareExpr>(CmpOp::kGt, std::move(l), std::move(r));
}
ExprPtr Ge(ExprPtr l, ExprPtr r) {
  return std::make_shared<CompareExpr>(CmpOp::kGe, std::move(l), std::move(r));
}

ExprPtr And(ExprPtr l, ExprPtr r) {
  return std::make_shared<LogicalExpr>(true, std::move(l), std::move(r));
}
ExprPtr Or(ExprPtr l, ExprPtr r) {
  return std::make_shared<LogicalExpr>(false, std::move(l), std::move(r));
}
ExprPtr Not(ExprPtr e) { return std::make_shared<NotExpr>(std::move(e)); }
ExprPtr IsNull(ExprPtr e) { return std::make_shared<IsNullExpr>(std::move(e)); }

ExprPtr AndAll(std::vector<ExprPtr> terms) {
  if (terms.empty()) return Lit(Value::Int64(1));
  ExprPtr out = terms[0];
  for (size_t i = 1; i < terms.size(); ++i) {
    out = And(std::move(out), terms[i]);
  }
  return out;
}

ExprPtr CaseWhen(std::vector<std::pair<ExprPtr, ExprPtr>> branches,
                 ExprPtr else_expr) {
  return std::make_shared<CaseWhenExpr>(std::move(branches),
                                        std::move(else_expr));
}

ExprPtr Coalesce(std::vector<ExprPtr> args) {
  return std::make_shared<CoalesceExpr>(std::move(args));
}

ExprPtr Abs(ExprPtr e) { return std::make_shared<AbsExpr>(std::move(e)); }

ExprPtr Round(ExprPtr e, int digits) {
  return std::make_shared<RoundExpr>(std::move(e), digits);
}

// -- PredicateMask -------------------------------------------------------------

struct PredicateMask::Node {
  MaskKind kind = MaskKind::kConst;
  CmpOp op = CmpOp::kEq;
  uint8_t constant = kUnknown;
  const uint8_t* validity = nullptr;
  const int64_t* i64 = nullptr;
  const double* f64 = nullptr;
  const uint32_t* codes = nullptr;
  const uint8_t* lut = nullptr;  // truth per dictionary code
  int64_t int_literal = 0;
  double float_literal = 0;
  uint32_t left = 0;
  uint32_t right = 0;
};

PredicateMask::PredicateMask() = default;
PredicateMask::PredicateMask(PredicateMask&&) noexcept = default;
PredicateMask& PredicateMask::operator=(PredicateMask&&) noexcept = default;
PredicateMask::~PredicateMask() = default;

Result<PredicateMask> PredicateMask::Bind(const Expression& predicate,
                                          const Table& table) {
  PCTAGG_ASSIGN_OR_RETURN(DataType type, predicate.ResultType(table.schema()));
  if (type != DataType::kInt64) {
    return Status::TypeMismatch("filter predicate must be boolean");
  }
  PredicateMask mask;
  mask.table_ = &table;
  PCTAGG_ASSIGN_OR_RETURN(mask.root_, mask.Compile(predicate));
  mask.depth_ = mask.Depth(mask.root_);
  return mask;
}

std::string PredicateMask::evaluator() const {
  if (fallbacks_ == 0) return "mask kernel";
  if (fallbacks_ == nodes_.size()) return "generic fallback";
  return "mask kernel+generic fallback";
}

uint32_t PredicateMask::AddNode(const Node& node) {
  nodes_.push_back(node);
  return static_cast<uint32_t>(nodes_.size() - 1);
}

Result<uint32_t> PredicateMask::Compile(const Expression& e) {
  Node node;
  if (const auto* lit = dynamic_cast<const LiteralExpr*>(&e)) {
    // A bare constant (AndAll of no terms is the literal 1).
    const Value& v = lit->value();
    if (!v.is_null() && !v.is_int64()) {
      return Status::TypeMismatch("filter predicate must be boolean");
    }
    node.constant = v.is_null() ? kUnknown : (v.int64() != 0 ? kTrue : kFalse);
    return AddNode(node);
  }
  if (const auto* ref = dynamic_cast<const ColumnRefExpr*>(&e)) {
    PCTAGG_ASSIGN_OR_RETURN(const Column* c, table_->ColumnByName(ref->name()));
    if (c->type() != DataType::kInt64) {
      return Status::TypeMismatch("filter predicate must be boolean");
    }
    node.kind = MaskKind::kTruth;
    node.validity = c->validity().data();
    node.i64 = c->int64_data().data();
    return AddNode(node);
  }
  if (const auto* logic = dynamic_cast<const LogicalExpr*>(&e)) {
    PCTAGG_ASSIGN_OR_RETURN(node.left, Compile(logic->left()));
    PCTAGG_ASSIGN_OR_RETURN(node.right, Compile(logic->right()));
    node.kind = logic->is_and() ? MaskKind::kAnd : MaskKind::kOr;
    return AddNode(node);
  }
  if (const auto* neg = dynamic_cast<const NotExpr*>(&e)) {
    PCTAGG_ASSIGN_OR_RETURN(node.left, Compile(neg->operand()));
    node.kind = MaskKind::kNot;
    return AddNode(node);
  }
  if (const auto* is_null = dynamic_cast<const IsNullExpr*>(&e)) {
    return CompileIsNull(is_null->operand());
  }
  if (const auto* cmp = dynamic_cast<const CompareExpr*>(&e);
      cmp != nullptr && cmp->ColumnVsConstant()) {
    return CompileCompare(*cmp);
  }
  return Fallback(e, /*is_null_test=*/false);
}

Result<uint32_t> PredicateMask::CompileIsNull(const Expression& operand) {
  Node node;
  if (const auto* ref = dynamic_cast<const ColumnRefExpr*>(&operand)) {
    PCTAGG_ASSIGN_OR_RETURN(const Column* c, table_->ColumnByName(ref->name()));
    node.kind = MaskKind::kIsNull;
    node.validity = c->validity().data();
    return AddNode(node);
  }
  if (const auto* lit = dynamic_cast<const LiteralExpr*>(&operand)) {
    node.constant = lit->value().is_null() ? kTrue : kFalse;
    return AddNode(node);
  }
  if (dynamic_cast<const CompareExpr*>(&operand) != nullptr ||
      dynamic_cast<const LogicalExpr*>(&operand) != nullptr ||
      dynamic_cast<const NotExpr*>(&operand) != nullptr ||
      dynamic_cast<const IsNullExpr*>(&operand) != nullptr) {
    PCTAGG_ASSIGN_OR_RETURN(node.left, Compile(operand));
    node.kind = MaskKind::kIsUnknown;
    return AddNode(node);
  }
  return Fallback(operand, /*is_null_test=*/true);
}

Result<uint32_t> PredicateMask::CompileCompare(const Expression& compare) {
  const auto& cmp = static_cast<const CompareExpr&>(compare);
  const bool column_left =
      dynamic_cast<const ColumnRefExpr*>(&cmp.left()) != nullptr;
  const auto& ref = static_cast<const ColumnRefExpr&>(
      column_left ? cmp.left() : cmp.right());
  std::optional<Value> literal =
      ConstantValue(column_left ? cmp.right() : cmp.left());
  if (!literal.has_value()) {
    return Status::Internal("constant operand did not evaluate: " +
                            compare.ToString());
  }
  PCTAGG_ASSIGN_OR_RETURN(const Column* c, table_->ColumnByName(ref.name()));
  Node node;
  if (literal->is_null()) return AddNode(node);  // UNKNOWN on every row
  node.op = column_left ? cmp.op() : Mirror(cmp.op());
  node.validity = c->validity().data();
  switch (c->type()) {
    case DataType::kString: {
      // One truth value per dictionary code, then one lookup per row. NULL
      // rows hold placeholder codes, so size the table for at least code 0.
      const Dictionary& dict = *c->dict();
      const std::string& s = literal->string();
      const size_t codes = std::max<size_t>(dict.size(), 1);
      std::vector<uint8_t> lut;
      if (node.op == CmpOp::kEq || node.op == CmpOp::kNe) {
        const bool eq = node.op == CmpOp::kEq;
        lut.assign(codes, eq ? kFalse : kTrue);
        const uint32_t hit = dict.Find(s);
        if (hit != Dictionary::kInvalidCode) lut[hit] = eq ? kTrue : kFalse;
      } else {
        lut.resize(codes, kFalse);
        for (size_t code = 0; code < dict.size(); ++code) {
          const int sign = dict.value(static_cast<uint32_t>(code)).compare(s);
          lut[code] = Holds(node.op, sign, 0) ? kTrue : kFalse;
        }
      }
      luts_.push_back(std::move(lut));
      node.kind = MaskKind::kCmpCode;
      node.codes = c->codes().data();
      node.lut = luts_.back().data();
      break;
    }
    case DataType::kInt64:
      if (literal->is_int64()) {
        node.kind = MaskKind::kCmpInt;
        node.int_literal = literal->int64();
      } else {
        node.kind = MaskKind::kCmpIntAsFloat;
        node.float_literal = literal->AsDouble();
      }
      node.i64 = c->int64_data().data();
      break;
    case DataType::kFloat64:
      node.kind = MaskKind::kCmpFloat;
      node.float_literal = literal->AsDouble();
      node.f64 = c->float64_data().data();
      break;
  }
  return AddNode(node);
}

Result<uint32_t> PredicateMask::Fallback(const Expression& e,
                                         bool is_null_test) {
  PCTAGG_ASSIGN_OR_RETURN(Column c, e.Evaluate(*table_));
  if (!is_null_test && c.type() != DataType::kInt64) {
    return Status::TypeMismatch("filter predicate must be boolean");
  }
  owned_.push_back(std::make_unique<Column>(std::move(c)));
  ++fallbacks_;
  const Column& col = *owned_.back();
  Node node;
  node.kind = is_null_test ? MaskKind::kIsNull : MaskKind::kTruth;
  node.validity = col.validity().data();
  if (!is_null_test) node.i64 = col.int64_data().data();
  return AddNode(node);
}

size_t PredicateMask::Depth(uint32_t id) const {
  const Node& node = nodes_[id];
  switch (node.kind) {
    case MaskKind::kAnd:
    case MaskKind::kOr:
      return std::max(Depth(node.left), 1 + Depth(node.right));
    case MaskKind::kNot:
    case MaskKind::kIsUnknown:
      return Depth(node.left);
    default:
      return 0;
  }
}

void PredicateMask::Run(uint32_t id, size_t begin, size_t n, uint8_t* out,
                        uint8_t* tmp) const {
  const Node& node = nodes_[id];
  const uint8_t* valid = node.validity != nullptr ? node.validity + begin
                                                  : nullptr;
  switch (node.kind) {
    case MaskKind::kConst:
      std::memset(out, node.constant, n);
      return;
    case MaskKind::kTruth: {
      const int64_t* d = node.i64 + begin;
      for (size_t i = 0; i < n; ++i) {
        out[i] = valid[i] != 0 ? (d[i] != 0 ? kTrue : kFalse) : kUnknown;
      }
      return;
    }
    case MaskKind::kIsNull:
      for (size_t i = 0; i < n; ++i) out[i] = valid[i] != 0 ? kFalse : kTrue;
      return;
    case MaskKind::kCmpInt:
      CompareRows(node.op, node.i64 + begin, valid, node.int_literal, n, out);
      return;
    case MaskKind::kCmpFloat:
      CompareRows(node.op, node.f64 + begin, valid, node.float_literal, n,
                  out);
      return;
    case MaskKind::kCmpIntAsFloat:
      CompareRows(node.op, node.i64 + begin, valid, node.float_literal, n,
                  out);
      return;
    case MaskKind::kCmpCode: {
      const uint32_t* codes = node.codes + begin;
      for (size_t i = 0; i < n; ++i) {
        out[i] = valid[i] != 0 ? node.lut[codes[i]] : kUnknown;
      }
      return;
    }
    case MaskKind::kAnd:
    case MaskKind::kOr: {
      Run(node.left, begin, n, out, tmp);
      Run(node.right, begin, n, tmp, tmp + n);
      if (node.kind == MaskKind::kAnd) {
        for (size_t i = 0; i < n; ++i) out[i] = std::min(out[i], tmp[i]);
      } else {
        for (size_t i = 0; i < n; ++i) out[i] = std::max(out[i], tmp[i]);
      }
      return;
    }
    case MaskKind::kNot:
      Run(node.left, begin, n, out, tmp);
      for (size_t i = 0; i < n; ++i) out[i] = kTrue - out[i];
      return;
    case MaskKind::kIsUnknown:
      Run(node.left, begin, n, out, tmp);
      for (size_t i = 0; i < n; ++i) {
        out[i] = out[i] == kUnknown ? kTrue : kFalse;
      }
      return;
  }
}

size_t PredicateMask::Select(size_t begin, size_t end, uint32_t* sel,
                             std::vector<uint8_t>* scratch) const {
  const size_t n = end - begin;
  if (n == 0) return 0;
  if (scratch->size() < (depth_ + 1) * n) scratch->resize((depth_ + 1) * n);
  uint8_t* truth = scratch->data();
  Run(root_, begin, n, truth, truth + n);
  return CompactTrue(truth, n, begin, sel);
}

Column PredicateMask::ToColumn() const {
  const size_t n = table_->num_rows();
  std::vector<uint8_t> truth((depth_ + 1) * n);
  if (n != 0) Run(root_, 0, n, truth.data(), truth.data() + n);
  std::vector<int64_t> data(n);
  std::vector<uint8_t> validity(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = truth[i] == kTrue ? 1 : 0;
    validity[i] = truth[i] != kUnknown ? 1 : 0;
  }
  return Column::FromInt64(std::move(data), std::move(validity));
}

}  // namespace pctagg
