#ifndef PCTAGG_SQL_AST_H_
#define PCTAGG_SQL_AST_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "engine/aggregate.h"
#include "engine/expression.h"
#include "engine/value.h"

namespace pctagg {

// Which function heads a SELECT term. kScalar means a plain expression
// (typically a grouping column). Vpct/Hpct are the paper's new aggregates;
// the standard functions become horizontal aggregations (the DMKD extension)
// when a BY list is attached, and OLAP window aggregates when OVER is used.
enum class TermFunc {
  kScalar,
  kSum,
  kCount,
  kCountStar,
  kAvg,
  kMin,
  kMax,
  kVpct,
  kHpct,
  kGrouping,  // GROUPING(col): 0 when col participates in the row's level
};

const char* TermFuncName(TermFunc func);

// The engine aggregate a standard aggregate term computes (sum, count,
// count(*), avg, min, max); fails for scalars, Vpct, Hpct and GROUPING.
Result<AggFunc> TermAggFunc(TermFunc func);

// One item of the SELECT list as parsed.
struct SelectTerm {
  TermFunc func = TermFunc::kScalar;
  ExprPtr argument;                      // aggregate argument / scalar expr
  bool distinct = false;                 // count(DISTINCT ...)
  std::vector<std::string> by_columns;   // BY D_{j+1},..,D_k inside the call
  bool has_by = false;
  bool has_default = false;              // ... DEFAULT 0 (binary coding)
  double default_value = 0.0;
  bool has_over = false;                 // OVER (PARTITION BY ...)
  std::vector<std::string> partition_by;
  std::string alias;                     // AS name (may be empty)

  // SQL rendering of this term, used in error messages and plan output.
  std::string ToString() const;
};

// One ORDER BY entry.
struct OrderItem {
  std::string column;
  bool descending = false;

  bool operator==(const OrderItem& other) const = default;
};

// SELECT <terms> FROM <table> [WHERE <expr>] [GROUP BY <cols>]
// [HAVING <expr>] [ORDER BY <cols> [DESC]] [LIMIT <n>] — the query shape
// the paper's framework accepts.
struct SelectStatement {
  std::vector<SelectTerm> terms;
  std::string from_table;
  ExprPtr where;  // may be null
  bool has_group_by = false;
  // Entries are column names, or 1-based positions as written ("GROUP BY 1,2").
  std::vector<std::string> group_by;
  // GROUP BY CUBE(...) / ROLLUP(...) / GROUPING SETS ((...),...). When set,
  // `group_by` stays empty: `grouping_columns` holds the CUBE/ROLLUP column
  // list and `grouping_sets` the explicit GROUPING SETS lists (an empty inner
  // list is the grand-total level `()`).
  enum class GroupingSetsKind { kNone, kCube, kRollup, kSets };
  GroupingSetsKind grouping_kind = GroupingSetsKind::kNone;
  std::vector<std::string> grouping_columns;
  std::vector<std::vector<std::string>> grouping_sets;
  // Evaluated over the result columns (aliases included); may be null.
  ExprPtr having;
  std::vector<OrderItem> order_by;
  bool has_limit = false;
  size_t limit = 0;

  std::string ToString() const;
};

// INSERT INTO <table> [(<columns>)] VALUES (<literals>), ... — the append
// statement. An empty column list means schema order; named lists may omit
// columns, which are filled with NULL (the paper's missing-dimension rows).
struct InsertStatement {
  std::string table;
  std::vector<std::string> columns;  // empty = full schema, in order
  std::vector<std::vector<Value>> rows;

  std::string ToString() const;
};

// DROP TABLE [IF EXISTS] <table> — removes the table from the catalog, its
// cached summaries, and (when a data directory is attached) its segment file
// and manifest entry.
struct DropStatement {
  std::string table;
  bool if_exists = false;

  std::string ToString() const;
};

// COPY <table> FROM '<path>' (APPEND) — bulk CSV append. The APPEND option
// is required today: it states the write is additive, which is what lets
// delta maintenance patch cached summaries instead of invalidating them.
struct CopyStatement {
  std::string table;
  std::string path;
  bool append = false;

  std::string ToString() const;
};

}  // namespace pctagg

#endif  // PCTAGG_SQL_AST_H_
