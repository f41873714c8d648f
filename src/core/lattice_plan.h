#ifndef PCTAGG_CORE_LATTICE_PLAN_H_
#define PCTAGG_CORE_LATTICE_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/summary_cache.h"
#include "engine/table.h"
#include "obs/trace.h"
#include "sql/analyzer.h"

namespace pctagg {

// The partial-summary core: the paper's Fk -> Fj -> divide/pivot chain as
// Gray et al.'s cube lattice. Every plain Vpct/Hpct/Hagg read taken off the
// materialized path, every plain vertical GROUP BY and every grouping-set
// query (GROUP BY CUBE / ROLLUP / GROUPING SETS) runs as one plan:
//
//   * the finest level is GROUP BY ∪ BY (the union of the grouping sets);
//   * it carries deduplicated distributive partials __l1, __l2, ...
//     (sum/count/min/max; avg decomposed into sum+count), deduplicated by
//     (func, argument) so Vpct(x BY a), Hpct(x BY d) and sum(x) share one
//     sum partial;
//   * every coarser level re-aggregates the smallest already-computed
//     ancestor (the shared-scan rollup) — a plain query is a one-level
//     lattice;
//   * each emitted level is assembled on its own: Vpct divides against the
//     level's totals (each Fj rolled up from the smallest already-computed
//     totals level, the materialized planner's lattice walk), Hpct pivots,
//     GROUPING() becomes its 0/1 id; blocks concatenate in statement order.
//
// The finest level comes from one of four sources:
//   1. the summary cache — the plan's exact entry, or the smallest mergeable
//      cached ancestor whose grouping subsumes the level and whose recipe
//      covers every partial, matched by (func, argument);
//   2. a single-flight fused scan of the fact table that fills the cache
//      (unfiltered scans only; engine/pipeline.h::FusedAggregate);
//   3. a rollup of a multi-query batch's union partial table
//      (core/mqo_plan.h);
//   4. the coordinator's merged per-shard partials (dist/coordinator.h).
//
// Integer measures are bit-identical across sources, dops and lattice modes
// (the kernels are shared and rollups keep first-seen group order); FLOAT64
// sums can differ only by reassociation — which is also all that separates
// an answer rolled up from a cached ancestor from a direct scan.
//
// Every computed level lands in the summary cache under its own mergeable
// recipe, so AppendRows delta-maintains all of them. The per-level mode
// (shared_scan = false) recomputes every level with its own fused scan; it is
// the reference the shared mode is checked and benchmarked against.

// The one support predicate: true when `query` decomposes into distributive
// partials at one finest level. Projections, window queries, count(DISTINCT),
// avg(... BY ...) and more than one BY term are rejected with the reason in
// `*why` (when non-null). Plain queries rejected here keep their materialized
// path; grouping-set and sharded queries have no other path and surface the
// reason as InvalidArgument.
bool PartialPlanSupported(const AnalyzedQuery& query,
                          std::string* why = nullptr);

// Executes the plan with the finest level taken from the cache or a fused
// scan of `fact` (sources 1 and 2; `summaries` may be null). `*from_cache`,
// when non-null, reports whether the finest level came from a cache entry.
// The caller applies HAVING/ORDER BY/LIMIT.
Result<Table> ExecutePartialPlan(const AnalyzedQuery& query, const Table& fact,
                                 SummaryCache* summaries,
                                 obs::QueryTrace* trace, size_t dop,
                                 bool shared_scan, bool* from_cache = nullptr);

// Whether ExecutePartialPlan would currently take the finest level from a
// cache entry. Counts no hits and refreshes no LRU positions.
bool PartialPlanCached(const AnalyzedQuery& query, SummaryCache* summaries);

// Human-readable script of the plan for plain EXPLAIN: the finest-level
// source, one pseudo-statement per level (scan or rollup) and the assembly.
std::string RenderPartialPlan(const AnalyzedQuery& query, bool shared_scan,
                              SummaryCache* summaries);

// Sources 1 and 2 as a standalone step (a batch's union scan): the partial
// table `partials` at grouping `cols` over `table_name` (filtered by
// `where`), from the cache or one single-flight fused scan of `fact` that
// fills it.
Result<std::shared_ptr<const Table>> ScanPartials(
    const std::string& table_name, const Table& fact, const ExprPtr& where,
    const std::vector<std::string>& cols, const std::vector<AggSpec>& partials,
    SummaryCache* summaries, size_t dop);

// Source 3: rolls `ancestor` — a batch's union partial table, computed with
// `recipe` over the query's table and WHERE — down to the query's finest
// level and assembles the result.
Result<Table> AssembleFromAncestor(const AnalyzedQuery& query,
                                   const Table& ancestor,
                                   const SummaryRecipe& recipe,
                                   obs::QueryTrace* trace, size_t dop);

// Renders "SELECT group_by, func(arg) AS name, ... FROM from [WHERE ...]
// [GROUP BY group_by]": one stage for EXPLAIN and traces, and the partial
// statement a shard executes locally.
std::string RenderStage(const std::vector<std::string>& group_by,
                        const std::vector<AggSpec>& aggs,
                        const std::string& from, const ExprPtr& where);

// --- Source 4: distributed partial aggregation (docs/SHARDING.md) -----------

// The worker-side request for one query: the finest grouping level, the
// deduplicated partial aggregates (__l1, __l2, ...), the merge spec for
// gathered partials, and the rendered partial SELECT each shard executes
// locally (a plain GROUP BY statement).
struct DistPartialPlan {
  std::vector<std::string> finest_cols;
  std::vector<AggSpec> partials;
  std::vector<AggSpec> combine;
  std::string partial_sql;
};
Result<DistPartialPlan> BuildDistributedPartialPlan(const AnalyzedQuery& query);

// Final coordinator-side step: the plan with `finest` (the merged shard
// partials, named as in BuildDistributedPartialPlan) as its finest level.
// The caller applies HAVING/ORDER BY/LIMIT.
Result<Table> AssembleFromPartials(const AnalyzedQuery& query,
                                   std::shared_ptr<const Table> finest,
                                   obs::QueryTrace* trace, size_t dop);

}  // namespace pctagg

#endif  // PCTAGG_CORE_LATTICE_PLAN_H_
