#ifndef PCTAGG_ENGINE_MERGE_H_
#define PCTAGG_ENGINE_MERGE_H_

#include <vector>

#include "common/result.h"
#include "engine/aggregate.h"
#include "engine/table.h"

namespace pctagg {

// Merges `delta` — the same GROUP BY / aggregate recipe evaluated over just
// a batch of appended rows — into `existing`, a cached summary of the rows
// before the batch. Both tables must share the FusedAggregate output shape:
// the first `num_group_cols` columns are the group key, followed by one
// column per entry of `aggs`, pairwise type-identical. Every agg must be
// distributive (sum/count/count(*)/min/max; avg is rejected).
//
// Groups present in both are combined cell-wise per aggregate function with
// SQL NULL semantics (an all-NULL sum stays NULL until a non-NULL delta
// arrives); groups only in `delta` are appended. Because FusedAggregate emits
// groups in first-seen input order, the merged table is exactly what
// recomputing over old-rows-then-new-rows would produce: old groups keep
// their positions, new groups follow in delta order. Integer aggregates are
// therefore bit-identical to a recompute; float sums carry the same
// reassociation caveat as cross-dop execution (docs/PARALLELISM.md).
//
// String group columns may use different dictionaries: probe keys are
// translated into `existing`'s code space (engine/packed_key.h), and
// appended rows re-intern. The result shares `existing`'s dictionaries, so
// callers must hold the single-writer append discipline while merging.
Result<Table> MergeSummaries(const Table& existing, const Table& delta,
                             size_t num_group_cols,
                             const std::vector<AggSpec>& aggs);

}  // namespace pctagg

#endif  // PCTAGG_ENGINE_MERGE_H_
