#ifndef PCTAGG_ENGINE_TABLE_OPS_H_
#define PCTAGG_ENGINE_TABLE_OPS_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "engine/expression.h"
#include "engine/table.h"

namespace pctagg {

// One projected output column: expression + output name.
struct ProjectSpec {
  ExprPtr expr;
  std::string output_name;
};

// SELECT <specs> FROM input.
Result<Table> Project(const Table& input, const std::vector<ProjectSpec>& specs);

// SELECT * FROM input WHERE predicate (rows where predicate is true).
Result<Table> Filter(const Table& input, const ExprPtr& predicate);

// SELECT DISTINCT <columns> FROM input, preserving first-seen order (the
// feedback query that discovers the N result columns of a horizontal pivot).
Result<Table> Distinct(const Table& input,
                       const std::vector<std::string>& columns);

// One ORDER BY key: a column plus direction.
struct SortKey {
  std::string column;
  bool descending = false;
};

// Ascending keys over `columns`, in order.
std::vector<SortKey> AscendingKeys(const std::vector<std::string>& columns);

// ORDER BY with per-key direction (NULLs first under ASC, last under DESC);
// stable. INT64 keys compare exactly, as int64.
Result<Table> SortBy(const Table& input, const std::vector<SortKey>& keys);

// LIMIT: the first `limit` rows of `input`.
Table Limit(const Table& input, size_t limit);

// The row permutation SortBy() would apply: output[i] is the input row index
// of the i-th row in sorted order. Used by the pivot to emit result columns
// in a deterministic order without moving data.
Result<std::vector<size_t>> SortPermutation(const Table& input,
                                            const std::vector<SortKey>& keys);

// Appends all rows of `src` to `dst` (schemas must be compatible by position:
// same arity and types). Implements INSERT INTO dst SELECT * FROM src.
Status InsertInto(Table* dst, const Table& src);

}  // namespace pctagg

#endif  // PCTAGG_ENGINE_TABLE_OPS_H_
