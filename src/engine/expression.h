#ifndef PCTAGG_ENGINE_EXPRESSION_H_
#define PCTAGG_ENGINE_EXPRESSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "engine/column.h"
#include "engine/table.h"
#include "engine/value.h"

namespace pctagg {

class Expression;
using ExprPtr = std::shared_ptr<const Expression>;

// Scalar expression tree evaluated column-at-a-time over a Table. Boolean
// results are INT64 columns holding 0/1 with SQL three-valued logic (UNKNOWN
// is a NULL slot). This is the machinery behind the generated plans' CASE
// statements, filters, and percentage divisions.
class Expression {
 public:
  virtual ~Expression() = default;

  // The output type of this expression against `schema`, or an error if the
  // expression does not bind/typecheck.
  virtual Result<DataType> ResultType(const Schema& schema) const = 0;

  // Evaluates over every row of `table`, producing a column of
  // table.num_rows() entries.
  virtual Result<Column> Evaluate(const Table& table) const = 0;

  // SQL-ish rendering, used when plans are printed as generated SQL.
  virtual std::string ToString() const = 0;
};

// -- Node constructors (the public builder API) ------------------------------

// A constant. Type derives from the value; NULL literals need a declared type.
ExprPtr Lit(Value v);
ExprPtr NullLit(DataType type);

// A column reference by (case-insensitive) name.
ExprPtr Col(std::string name);

// Arithmetic; division by zero yields NULL (matching the paper's Vpct()
// semantics — the generated CASE guard makes it explicit at the SQL level).
ExprPtr Add(ExprPtr l, ExprPtr r);
ExprPtr Sub(ExprPtr l, ExprPtr r);
ExprPtr Mul(ExprPtr l, ExprPtr r);
ExprPtr Div(ExprPtr l, ExprPtr r);

// Comparisons (=, <>, <, <=, >, >=) with SQL NULL semantics.
ExprPtr Eq(ExprPtr l, ExprPtr r);
ExprPtr Ne(ExprPtr l, ExprPtr r);
ExprPtr Lt(ExprPtr l, ExprPtr r);
ExprPtr Le(ExprPtr l, ExprPtr r);
ExprPtr Gt(ExprPtr l, ExprPtr r);
ExprPtr Ge(ExprPtr l, ExprPtr r);

// Three-valued logic connectives.
ExprPtr And(ExprPtr l, ExprPtr r);
ExprPtr Or(ExprPtr l, ExprPtr r);
ExprPtr Not(ExprPtr e);
ExprPtr IsNull(ExprPtr e);

// Conjunction of all `terms` (empty -> constant true).
ExprPtr AndAll(std::vector<ExprPtr> terms);

// CASE WHEN c1 THEN r1 ... ELSE e END; a null `else_expr` means ELSE NULL.
ExprPtr CaseWhen(std::vector<std::pair<ExprPtr, ExprPtr>> branches,
                 ExprPtr else_expr);

// COALESCE(a, b, ...): the first non-NULL argument (NULL if all are).
// Arguments must share a type family (all numeric or all string).
ExprPtr Coalesce(std::vector<ExprPtr> args);

// ABS(x) for numeric x (type-preserving).
ExprPtr Abs(ExprPtr e);

// ROUND(x, digits): x rounded to `digits` decimal places (FLOAT64).
ExprPtr Round(ExprPtr e, int digits);

// -- Predicate evaluation ------------------------------------------------------

// The one evaluator for boolean predicates: WHERE in the fused scan and in
// Filter, HAVING, and the boolean nodes' own Evaluate (so CASE conditions
// share it). Bind() type-checks the predicate once and compiles it into a
// tree of typed mask kernels that read the table's column arrays in place:
//   * column-vs-constant comparisons (either way round) are tight loops over
//     int64_data()/float64_data() plus validity. INT64 against INT64 is exact;
//     any other numeric pair compares as doubles. A dictionary string column
//     compares through a per-code lookup table built once per Bind (one
//     string compare per distinct value, a hash probe for = and <>);
//   * AND/OR/NOT/IS NULL combine one byte per row holding SQL's three truth
//     values (FALSE=0, UNKNOWN=1, TRUE=2: AND is min, OR is max, NOT is 2-x),
//     and a row is kept iff the whole predicate is TRUE.
// Any other subtree (column-vs-column, arithmetic, CASE...) is evaluated once
// through Expression::Evaluate at Bind time and read back as a column.
//
// Select() is const and runs concurrently on disjoint row ranges, each
// caller with its own scratch, which is how the fused scan filters every
// morsel inside its parallel workers.
class PredicateMask {
 public:
  // Errors if `predicate` does not typecheck against `table` or is not
  // boolean (INT64). `table` must outlive the mask.
  static Result<PredicateMask> Bind(const Expression& predicate,
                                    const Table& table);

  PredicateMask(PredicateMask&&) noexcept;
  PredicateMask& operator=(PredicateMask&&) noexcept;
  ~PredicateMask();

  // Which evaluator runs, for EXPLAIN ANALYZE: "mask kernel", "generic
  // fallback" (the whole predicate went through Evaluate) or
  // "mask kernel+generic fallback".
  std::string evaluator() const;

  // Writes the absolute ids of the rows in [begin, end) where the predicate
  // is TRUE to `sel` (room for end - begin entries), in row order; returns
  // how many. `scratch` is per-thread working memory.
  size_t Select(size_t begin, size_t end, uint32_t* sel,
                std::vector<uint8_t>* scratch) const;

  // The predicate over every row as a boolean column: 0/1, NULL = UNKNOWN.
  Column ToColumn() const;

 private:
  struct Node;

  PredicateMask();

  Result<uint32_t> Compile(const Expression& e);
  Result<uint32_t> CompileIsNull(const Expression& operand);
  Result<uint32_t> CompileCompare(const Expression& compare);
  Result<uint32_t> Fallback(const Expression& e, bool is_null_test);
  uint32_t AddNode(const Node& node);
  size_t Depth(uint32_t node) const;
  // Writes three-valued bytes of rows [begin, begin + n) to `out`; `tmp`
  // holds Depth(node) * n bytes for the children's partial results.
  void Run(uint32_t node, size_t begin, size_t n, uint8_t* out,
           uint8_t* tmp) const;

  const Table* table_ = nullptr;
  std::vector<Node> nodes_;
  uint32_t root_ = 0;
  size_t depth_ = 0;
  size_t fallbacks_ = 0;
  // Storage the nodes point into: lookup tables and fallback columns.
  std::vector<std::vector<uint8_t>> luts_;
  std::vector<std::unique_ptr<Column>> owned_;
};

}  // namespace pctagg

#endif  // PCTAGG_ENGINE_EXPRESSION_H_
