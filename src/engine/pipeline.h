#ifndef PCTAGG_ENGINE_PIPELINE_H_
#define PCTAGG_ENGINE_PIPELINE_H_

#include <vector>

#include "engine/aggregate.h"
#include "engine/expression.h"
#include "engine/table.h"

namespace pctagg {

// The engine's one GROUP BY kernel. Every aggregation — the core's
// finest-level scans and rollups, the materialized plans' Fk/Fj/FV
// statements, the CASE horizontal forms and delta maintenance — runs here.
// Each morsel is pushed through WHERE selection (PredicateMask,
// engine/expression.h, evaluated inside the morsel's worker; `where` may be
// nullptr), keying and accumulation in one pass, so filtered rows are never
// copied and the group key is built straight from the column arrays.
//
// `group_by` may be empty: one global group; with zero input rows the global
// group still yields one row of NULL/0 aggregates, matching SQL. NULL
// semantics follow sum()/count(): NULL inputs are skipped, an all-NULL group
// aggregates to NULL (count: 0). Output schema: the group-by columns (input
// types preserved) followed by one column per AggSpec. Groups are emitted in
// first-seen input order at every dop.
//
// Keys take one of three tiers, shown in EXPLAIN ANALYZE as
// `keys=direct-dict(N)` (one string column with a small dictionary: the
// code is the group id), `keys=inline(Kx8B)` (up to two columns held as
// register words) or `keys=packed(NB)` (three or more columns, packed into
// a KeyMap), plus `+where` when a WHERE was applied. Each worker folds its
// morsels into a thread-local partial; the partials are merged once, the
// packed tier across hash partitions in parallel, every tier folding the
// partials in worker order. Integer aggregates (INT64 sums, counts, INT64
// min/max) are bit-identical across dop; float sums may differ by
// reassociation (docs/PARALLELISM.md).
//
// `dop` 0 means "inherit CurrentDop()". Morsels come from MorselPlan::Auto:
// workers are clamped to the CPUs this process can actually use and morsels
// sized to ~4 per worker.
Result<Table> FusedAggregate(const Table& input, const ExprPtr& where,
                             const std::vector<std::string>& group_by,
                             const std::vector<AggSpec>& aggs, size_t dop = 0);

// Vectorized percentage divide over two numeric columns: FLOAT64 output,
// NULL where either operand is NULL or the divisor is zero. Bit-identical to
// evaluating Div(Col(num), Col(den)) — IEEE double division is deterministic
// and the AVX2 lanes perform exactly the scalar operation (runtime-selected,
// PCTAGG_DISABLE_SIMD forces the scalar loop).
Result<Column> PercentDivideColumns(const Column& num, const Column& den);

// Scalar-divisor variant for grand-total terms: NULL or zero total yields an
// all-NULL column, matching Div(Col(num), Lit(total)).
Result<Column> PercentDivideScalar(const Column& num, const Value& total);

}  // namespace pctagg

#endif  // PCTAGG_ENGINE_PIPELINE_H_
