#include "core/lattice_plan.h"

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>

#include "common/string_util.h"
#include "engine/aggregate.h"
#include "engine/expression.h"
#include "engine/join.h"
#include "engine/pipeline.h"
#include "engine/pivot.h"
#include "engine/table_ops.h"

namespace pctagg {

namespace {

constexpr size_t kNone = static_cast<size_t>(-1);

// "func(arg)": the identity partials are deduplicated and matched on, so a
// recipe written by any path — a plan, a batch, the materialized planner —
// identifies the same partial the same way.
std::string PartialKey(AggFunc func, const ExprPtr& argument) {
  return std::string(AggFuncName(func)) + "(" +
         (func == AggFunc::kCountStar ? "*" : argument->ToString()) + ")";
}

std::vector<std::string> RenderEach(const std::vector<AggSpec>& aggs) {
  std::vector<std::string> rendered;
  rendered.reserve(aggs.size());
  for (const AggSpec& a : aggs) {
    rendered.push_back(PartialKey(a.func, a.input) + " AS " + a.output_name);
  }
  return rendered;
}

// Same rendering as AddCacheableAggregateStep, so equal aggregation steps key
// the same summary-cache entry.
std::string RenderAggs(const std::vector<AggSpec>& aggs) {
  return Join(RenderEach(aggs), ",");
}

Result<size_t> ColIndex(const Table& t, const std::string& name) {
  for (size_t c = 0; c < t.num_columns(); ++c) {
    if (EqualsIgnoreCase(t.schema().column(c).name, name)) return c;
  }
  return Status::Internal("partial plan lost column: " + name);
}

bool ContainsColumn(const std::vector<std::string>& cols,
                    const std::string& name) {
  for (const std::string& c : cols) {
    if (EqualsIgnoreCase(c, name)) return true;
  }
  return false;
}

bool Subsumes(const std::vector<std::string>& outer,
              const std::vector<std::string>& inner) {
  for (const std::string& i : inner) {
    if (!ContainsColumn(outer, i)) return false;
  }
  return true;
}

std::string LevelName(const std::vector<std::string>& cols) {
  return "(" + Join(cols, ", ") + ")";
}

// Re-aggregation of a distributive partial: min/max keep their function,
// counts and sums re-sum.
AggFunc CombineFunc(AggFunc func) {
  return func == AggFunc::kMin || func == AggFunc::kMax ? func : AggFunc::kSum;
}

std::vector<AggSpec> CombineSpecs(const std::vector<AggSpec>& partials) {
  std::vector<AggSpec> out;
  out.reserve(partials.size());
  for (const AggSpec& p : partials) {
    out.push_back({CombineFunc(p.func), Col(p.output_name), p.output_name});
  }
  return out;
}

// Rolls the partial table `src` up to grouping `cols`: output column
// partials[i].output_name re-aggregates source column from[i] (the partial's
// own name when `from` is empty). Rolling zero groups up to the global ()
// level leaves count partials NULL where a direct scan of the empty input
// emits 0; they are patched so every source agrees bit for bit.
Result<Table> RollUp(const Table& src, const std::vector<std::string>& cols,
                     const std::vector<AggSpec>& partials,
                     const std::vector<std::string>& from, size_t dop) {
  std::vector<AggSpec> combine = CombineSpecs(partials);
  for (size_t i = 0; i < from.size(); ++i) combine[i].input = Col(from[i]);
  PCTAGG_ASSIGN_OR_RETURN(Table t,
                          FusedAggregate(src, nullptr, cols, combine, dop));
  if (cols.empty() && src.num_rows() == 0) {
    for (size_t a = 0; a < partials.size(); ++a) {
      const bool is_count = partials[a].func == AggFunc::kCount ||
                            partials[a].func == AggFunc::kCountStar;
      if (!is_count || !t.column(a).IsNull(0)) continue;
      PCTAGG_RETURN_IF_ERROR(t.mutable_column(a).SetValue(0, Value::Int64(0)));
    }
  }
  return t;
}

// Source column in `recipe` for every partial, matched by (func, argument);
// false when the recipe lacks one of them.
bool MatchPartials(const std::vector<AggSpec>& partials,
                   const std::vector<AggSpec>& recipe,
                   std::vector<std::string>* from) {
  from->clear();
  for (const AggSpec& p : partials) {
    const std::string want = PartialKey(p.func, p.input);
    const AggSpec* found = nullptr;
    for (const AggSpec& a : recipe) {
      if (PartialKey(a.func, a.input) == want) {
        found = &a;
        break;
      }
    }
    if (found == nullptr) return false;
    from->push_back(found->output_name);
  }
  return true;
}

// The cache entry that answers a level: the exact entry when present,
// otherwise the smallest mergeable entry whose grouping subsumes the level
// and whose recipe covers every partial.
struct CachedAncestor {
  SummaryCache::AncestorCandidate entry;
  std::vector<std::string> from;  // source column per partial
  bool exact = false;
};

std::optional<CachedAncestor> FindCachedAncestor(
    SummaryCache* cache, const std::string& table_name,
    const std::vector<std::string>& cols,
    const std::vector<AggSpec>& partials) {
  const std::string own_key =
      SummaryCache::KeyFor(table_name, cols, RenderAggs(partials));
  std::optional<CachedAncestor> best;
  for (SummaryCache::AncestorCandidate& cand :
       cache->MergeableEntriesFor(table_name)) {
    if (!Subsumes(cand.recipe.group_by, cols)) continue;
    std::vector<std::string> from;
    if (!MatchPartials(partials, cand.recipe.aggs, &from)) continue;
    const bool exact = cand.key == own_key;
    if (!exact && best.has_value() &&
        cand.summary->num_rows() >= best->entry.summary->num_rows()) {
      continue;
    }
    best = CachedAncestor{std::move(cand), std::move(from), exact};
    if (exact) break;
  }
  return best;
}

std::shared_ptr<const Table> Share(Table t) {
  return std::make_shared<const Table>(std::move(t));
}

// Answers `cols`/`partials` from its exact summary-cache entry or runs
// `compute`, inserting the result under its mergeable recipe when this
// thread owns the fill. Single-flight: identical concurrent misses wait for
// one owner. Deadlock-free across queries because every fill is released
// (ScopedFill) before the caller asks for the next one. A null cache just
// computes. Opens no trace node: a hit marks the caller's.
template <typename Compute>
Result<std::shared_ptr<const Table>> CachedStep(
    SummaryCache* cache, const std::string& table_name,
    const std::vector<std::string>& cols, const std::vector<AggSpec>& partials,
    Compute compute) {
  std::string key;
  uint64_t generation = 0;
  std::shared_ptr<const Table> cached;
  bool own_fill = false;
  if (cache != nullptr) {
    key = SummaryCache::KeyFor(table_name, cols, RenderAggs(partials));
    own_fill = cache->LookupOrBeginFill(key, &cached);
    // The owner reads the generation only after claiming the fill, so the
    // stale-insert check covers its whole compute window.
    if (own_fill) generation = cache->GenerationFor(table_name);
  }
  SummaryCache::ScopedFill fill(own_fill ? cache : nullptr, key);
  if (cached != nullptr) {
    obs::MarkCacheHit();
    return cached;
  }
  PCTAGG_ASSIGN_OR_RETURN(Table t, compute());
  if (own_fill) {
    SummaryRecipe recipe{cols, partials};
    cache->Insert(key, t, generation, &recipe);
  }
  return Share(std::move(t));
}

obs::TraceNode* AddNode(obs::QueryTrace* trace, const std::string& label,
                        const std::string& detail) {
  return trace != nullptr ? trace->root().AddChild(label, detail) : nullptr;
}

// Sources 1 and 2 for one level. `allow_ancestor` = false restricts the
// cache to the level's exact entry (per-level recompute mode).
Result<std::shared_ptr<const Table>> ScanLevel(
    const std::string& table_name, const Table& fact, const ExprPtr& where,
    const std::vector<std::string>& cols, const std::vector<AggSpec>& partials,
    SummaryCache* summaries, obs::QueryTrace* trace, size_t dop,
    bool allow_ancestor, bool* from_cache) {
  // Filtered scans never share summaries: the cache holds base-table
  // aggregates only.
  SummaryCache* cache = where == nullptr ? summaries : nullptr;
  if (from_cache != nullptr) *from_cache = false;
  const std::string scan_detail =
      "fused-scan: " + RenderStage(cols, partials, table_name, where);
  if (cache != nullptr && allow_ancestor) {
    std::optional<CachedAncestor> anc =
        FindCachedAncestor(cache, table_name, cols, partials);
    if (anc.has_value()) {
      if (from_cache != nullptr) *from_cache = true;
      // Count the hit and refresh the LRU position of the entry used.
      cache->Lookup(anc->entry.key);
      obs::ScopedTraceNode scope(AddNode(
          trace, anc->exact ? "fused" : "cache",
          anc->exact ? scan_detail
                     : "cache-ancestor-rollup: level " + LevelName(cols) +
                           " from cached " +
                           LevelName(anc->entry.recipe.group_by)));
      obs::MarkCacheHit();
      if (anc->exact) return anc->entry.summary;
      PCTAGG_ASSIGN_OR_RETURN(
          Table t, RollUp(*anc->entry.summary, cols, partials, anc->from, dop));
      return Share(std::move(t));
    }
  }
  obs::ScopedTraceNode scope(AddNode(trace, "fused", scan_detail));
  return CachedStep(cache, table_name, cols, partials, [&] {
    return FusedAggregate(fact, where, cols, partials, dop);
  });
}

// The deduplicated partial list of one plan.
class PartialSet {
 public:
  size_t Add(AggFunc func, const ExprPtr& argument) {
    std::string key = PartialKey(func, argument);
    auto it = index_.find(key);
    if (it != index_.end()) return it->second;
    const size_t i = specs_.size();
    specs_.push_back({func, argument, "__l" + std::to_string(i + 1)});
    index_[key] = i;
    return i;
  }
  const std::vector<AggSpec>& specs() const { return specs_; }
  const std::string& name(size_t i) const { return specs_[i].output_name; }

 private:
  std::vector<AggSpec> specs_;
  std::map<std::string, size_t> index_;
};

// Which partials a vertical/Vpct SELECT term reads at assembly time.
struct TermPlan {
  size_t main = kNone;
  size_t count = kNone;  // avg only
};

// The single BY term, its pivot shape, and the extra vertical aggregates of
// a horizontal query.
struct HorizontalPlan {
  const AnalyzedTerm* hterm = nullptr;
  bool is_pct = false;
  size_t main = kNone;
  AggFunc pivot_func = AggFunc::kSum;
  struct Extra {
    const AnalyzedTerm* term;
    size_t main = kNone;
    size_t count = kNone;  // avg only
  };
  std::vector<Extra> extras;
  std::vector<size_t> extra_partials;  // distinct partials the extras read
};

// Every level's partial table, parallel to CorePlan::levels.
using LevelTables = std::vector<std::shared_ptr<const Table>>;

// One query's plan: partials, per-term assembly, and the lattice levels.
struct CorePlan {
  const AnalyzedQuery* query = nullptr;
  PartialSet pset;
  std::vector<TermPlan> terms;  // vertical/Vpct, parallel to query->terms
  HorizontalPlan horizontal;    // horizontal queries (hterm set)
  // Emitted grouping sets in statement order (the GROUP BY of a plain
  // query); levels[i] is sets[i] plus the BY columns, followed by a
  // synthetic finest level (computed, never emitted) when the union itself
  // is not emitted.
  std::vector<std::vector<std::string>> sets;
  std::vector<std::vector<std::string>> levels;
  size_t finest = 0;  // index of GROUP BY ∪ BY in `levels`
};

Status BuildVerticalTerms(CorePlan* plan) {
  const AnalyzedQuery& query = *plan->query;
  plan->terms.assign(query.terms.size(), TermPlan{});
  for (size_t i = 0; i < query.terms.size(); ++i) {
    const AnalyzedTerm& t = query.terms[i];
    TermPlan& p = plan->terms[i];
    switch (t.func) {
      case TermFunc::kScalar:
      case TermFunc::kGrouping:
        break;
      case TermFunc::kVpct:
        p.main = plan->pset.Add(AggFunc::kSum, t.argument);
        break;
      case TermFunc::kAvg:
        p.main = plan->pset.Add(AggFunc::kSum, t.argument);
        p.count = plan->pset.Add(AggFunc::kCount, t.argument);
        break;
      default: {
        PCTAGG_ASSIGN_OR_RETURN(AggFunc func, TermAggFunc(t.func));
        p.main = plan->pset.Add(func, t.argument);
        break;
      }
    }
  }
  // A pure grouping query (scalars + GROUPING() only) still needs one
  // concrete column per level so the () level materializes its single row.
  if (plan->pset.specs().empty()) plan->pset.Add(AggFunc::kCountStar, nullptr);
  return Status::OK();
}

Status BuildHorizontalTerms(CorePlan* plan) {
  const AnalyzedQuery& query = *plan->query;
  HorizontalPlan& h = plan->horizontal;
  for (const AnalyzedTerm& t : query.terms) {
    if (t.func != TermFunc::kScalar && t.func != TermFunc::kGrouping &&
        t.has_by) {
      h.hterm = &t;
      break;
    }
  }
  if (h.hterm == nullptr) {
    return Status::Internal("horizontal plan without a BY term");
  }
  h.is_pct = h.hterm->func == TermFunc::kHpct;
  AggFunc direct = AggFunc::kSum;
  if (!h.is_pct) {
    PCTAGG_ASSIGN_OR_RETURN(direct, TermAggFunc(h.hterm->func));
  }
  h.main = plan->pset.Add(direct, h.hterm->argument);
  // For Hpct the group total is the sum of the partial sums, so
  // percent-of-group-total over partials equals the direct computation.
  h.pivot_func = h.is_pct ? AggFunc::kSum : CombineFunc(direct);
  for (const AnalyzedTerm& t : query.terms) {
    if (t.func == TermFunc::kScalar || t.func == TermFunc::kGrouping ||
        t.has_by) {
      continue;
    }
    HorizontalPlan::Extra e;
    e.term = &t;
    PCTAGG_ASSIGN_OR_RETURN(AggFunc func, TermAggFunc(t.func));
    if (func == AggFunc::kAvg) {
      e.main = plan->pset.Add(AggFunc::kSum, t.argument);
      e.count = plan->pset.Add(AggFunc::kCount, t.argument);
    } else {
      e.main = plan->pset.Add(func, t.argument);
    }
    for (size_t p : {e.main, e.count}) {
      if (p != kNone && std::find(h.extra_partials.begin(),
                                  h.extra_partials.end(),
                                  p) == h.extra_partials.end()) {
        h.extra_partials.push_back(p);
      }
    }
    h.extras.push_back(e);
  }
  return Status::OK();
}

// Callers check PartialPlanSupported first.
Result<CorePlan> BuildCorePlan(const AnalyzedQuery& query) {
  CorePlan plan;
  plan.query = &query;
  std::vector<std::string> by;
  if (query.query_class == QueryClass::kHorizontal) {
    PCTAGG_RETURN_IF_ERROR(BuildHorizontalTerms(&plan));
    by = plan.horizontal.hterm->by_columns;
  } else {
    PCTAGG_RETURN_IF_ERROR(BuildVerticalTerms(&plan));
  }
  plan.sets = query.has_grouping_sets
                  ? query.grouping_sets
                  : std::vector<std::vector<std::string>>{query.group_by};
  plan.finest = kNone;
  for (const std::vector<std::string>& s : plan.sets) {
    // Levels are normalized subsets of the union, so size equality means
    // equality.
    if (s.size() == query.group_by.size()) plan.finest = plan.levels.size();
    std::vector<std::string> cols = s;
    cols.insert(cols.end(), by.begin(), by.end());
    plan.levels.push_back(std::move(cols));
  }
  if (plan.finest == kNone) {
    plan.finest = plan.levels.size();
    std::vector<std::string> cols = query.group_by;
    cols.insert(cols.end(), by.begin(), by.end());
    plan.levels.push_back(std::move(cols));
  }
  return plan;
}

Status Unsupported(const AnalyzedQuery& query, const std::string& context) {
  std::string why;
  if (PartialPlanSupported(query, &why)) return Status::OK();
  return Status::InvalidArgument(context + ": " + why);
}

// Computes every level's partial table, finest first. The finest level is
// `finest` when given (sources 3 and 4), else scanned (sources 1 and 2).
// In shared-scan mode every coarser level re-aggregates the smallest
// already-computed ancestor; in per-level mode each level runs its own
// fused scan. Both modes produce the same tables bit for bit on integer
// measures, so every level is looked up in / inserted into the summary cache
// under its own mergeable recipe (unfiltered scans of the base table only).
Result<LevelTables> ComputeLevels(
    const CorePlan& plan, const Table& fact, SummaryCache* summaries,
    obs::QueryTrace* trace, size_t dop, bool shared_scan,
    std::shared_ptr<const Table> finest, bool* from_cache) {
  const AnalyzedQuery& query = *plan.query;
  const std::vector<AggSpec>& specs = plan.pset.specs();
  SummaryCache* cache = query.where == nullptr ? summaries : nullptr;
  LevelTables out(plan.levels.size());
  std::vector<size_t> order(plan.levels.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&plan](size_t a, size_t b) {
    return plan.levels[a].size() > plan.levels[b].size();
  });

  for (size_t oi = 0; oi < order.size(); ++oi) {
    const size_t li = order[oi];
    const std::vector<std::string>& cols = plan.levels[li];
    if (oi == 0 && finest != nullptr) {
      out[li] = std::move(finest);
      continue;
    }
    if (oi == 0 || !shared_scan) {
      PCTAGG_ASSIGN_OR_RETURN(
          out[li], ScanLevel(query.table_name, fact, query.where, cols, specs,
                             summaries, trace, dop,
                             /*allow_ancestor=*/shared_scan,
                             oi == 0 ? from_cache : nullptr));
      continue;
    }
    size_t src = kNone;
    for (size_t pj = 0; pj < oi; ++pj) {
      const size_t cand = order[pj];
      if (!Subsumes(plan.levels[cand], cols)) continue;
      if (src == kNone || out[cand]->num_rows() < out[src]->num_rows()) {
        src = cand;
      }
    }
    if (src == kNone) {
      return Status::Internal("lattice rollup has no source level");
    }
    obs::ScopedTraceNode scope(
        AddNode(trace, "lattice",
                "lattice-rollup: level " + LevelName(cols) + " from " +
                    LevelName(plan.levels[src])));
    const Table& source = *out[src];
    PCTAGG_ASSIGN_OR_RETURN(
        out[li], CachedStep(cache, query.table_name, cols, specs, [&] {
          return RollUp(source, cols, specs, {}, dop);
        }));
  }
  return out;
}

Column AvgColumn(const Column& s, const Column& n) {
  Column cell(DataType::kFloat64);
  cell.Reserve(s.size());
  for (size_t r = 0; r < s.size(); ++r) {
    if (s.IsNull(r) || n.IsNull(r) || n.NumericAt(r) == 0.0) {
      cell.AppendNull();
    } else {
      cell.AppendFloat64(s.NumericAt(r) / n.NumericAt(r));
    }
  }
  return cell;
}

Column ConstantColumn(DataType type, const Value& v, size_t rows) {
  Column c(type);
  c.Reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    if (v.is_null()) {
      c.AppendNull();
    } else {
      (void)c.AppendValue(v);
    }
  }
  return c;
}

// A Vpct term's totals grouping at one level: the level's columns minus BY
// (grand total when empty), the analyzer's totals_by read per level.
std::vector<std::string> TotalsBy(const AnalyzedTerm& term,
                                  const std::vector<std::string>& cols) {
  std::vector<std::string> by;
  if (!term.has_by) return by;
  for (const std::string& c : cols) {
    if (!ContainsColumn(term.by_columns, c)) by.push_back(c);
  }
  return by;
}

// Fj for every Vpct term at one level, fine to coarse: each rolls up the
// smallest already-computed totals table of the same measure whose grouping
// subsumes its own, else the level itself — the materialized planner's
// lattice walk, so FLOAT64 totals are summed in the same order.
Result<std::vector<Table>> LevelTotals(const CorePlan& plan,
                                       const std::vector<std::string>& cols,
                                       const Table& level, size_t dop) {
  const std::vector<AnalyzedTerm>& terms = plan.query->terms;
  std::vector<Table> out(terms.size());
  std::vector<std::vector<std::string>> by(terms.size());
  std::vector<size_t> order;
  for (size_t ti = 0; ti < terms.size(); ++ti) {
    if (terms[ti].func != TermFunc::kVpct) continue;
    by[ti] = TotalsBy(terms[ti], cols);
    order.push_back(ti);
  }
  std::stable_sort(order.begin(), order.end(), [&by](size_t a, size_t b) {
    return by[a].size() > by[b].size();
  });
  for (size_t oi = 0; oi < order.size(); ++oi) {
    const size_t ti = order[oi];
    size_t best = kNone;
    for (size_t pj = 0; pj < oi; ++pj) {
      const size_t d = order[pj];
      if (plan.terms[d].main != plan.terms[ti].main) continue;
      if (!Subsumes(by[d], by[ti])) continue;
      if (best == kNone || by[d].size() < by[best].size()) best = d;
    }
    const Table& src = best == kNone ? level : out[best];
    const std::string src_col =
        best == kNone ? plan.pset.name(plan.terms[ti].main) : "__tot";
    PCTAGG_ASSIGN_OR_RETURN(
        out[ti],
        FusedAggregate(src, nullptr, by[ti],
                       {{AggFunc::kSum, Col(src_col), "__tot"}}, dop));
  }
  return out;
}

// Vertical/Vpct assembly: one block per emitted level with the full
// SELECT-order schema (grouping columns the level rolled away become NULL,
// GROUPING() becomes its 0/1 id, Vpct divides against the level's own
// totals), concatenated in statement order.
Result<Table> AssembleVertical(
    const CorePlan& plan, const LevelTables& levels, size_t dop,
    obs::QueryTrace* trace) {
  const AnalyzedQuery& query = *plan.query;
  obs::ScopedTraceNode scope(AddNode(
      trace, "lattice",
      StrFormat("lattice-assemble: %zu level(s), SELECT-order blocks + "
                "GROUPING ids",
                plan.sets.size())));
  obs::OpScope op("assemble");
  Table out;
  for (size_t li = 0; li < plan.sets.size(); ++li) {
    const std::vector<std::string>& cols = plan.levels[li];
    const Table& t = *levels[li];
    PCTAGG_ASSIGN_OR_RETURN(std::vector<Table> totals,
                            LevelTotals(plan, cols, t, dop));
    Table block;
    for (size_t ti = 0; ti < query.terms.size(); ++ti) {
      const AnalyzedTerm& term = query.terms[ti];
      const TermPlan& tp = plan.terms[ti];
      Column cell(DataType::kFloat64);
      DataType type = DataType::kFloat64;
      switch (term.func) {
        case TermFunc::kScalar: {
          if (ContainsColumn(cols, term.scalar_column)) {
            PCTAGG_ASSIGN_OR_RETURN(size_t c, ColIndex(t, term.scalar_column));
            type = t.schema().column(c).type;
            cell = t.column(c);
          } else {
            PCTAGG_ASSIGN_OR_RETURN(
                size_t fc, query.schema.FindColumn(term.scalar_column));
            type = query.schema.column(fc).type;
            cell = ConstantColumn(type, Value::Null(), t.num_rows());
          }
          break;
        }
        case TermFunc::kGrouping:
          type = DataType::kInt64;
          cell = ConstantColumn(
              type,
              Value::Int64(ContainsColumn(cols, term.scalar_column) ? 0 : 1),
              t.num_rows());
          break;
        case TermFunc::kVpct: {
          PCTAGG_ASSIGN_OR_RETURN(size_t sc,
                                  ColIndex(t, plan.pset.name(tp.main)));
          const Table& fj = totals[ti];
          const std::vector<std::string> by = TotalsBy(term, cols);
          if (by.empty()) {
            if (fj.num_rows() != 1) {
              return Status::Internal(
                  "grand-total table must have exactly one row");
            }
            PCTAGG_ASSIGN_OR_RETURN(
                cell,
                PercentDivideScalar(t.column(sc), fj.column(0).GetValue(0)));
          } else {
            PCTAGG_ASSIGN_OR_RETURN(
                Column tot, LookupColumn(t, fj, by, by, "__tot", nullptr));
            PCTAGG_ASSIGN_OR_RETURN(cell,
                                    PercentDivideColumns(t.column(sc), tot));
          }
          break;
        }
        case TermFunc::kAvg: {
          PCTAGG_ASSIGN_OR_RETURN(size_t sc,
                                  ColIndex(t, plan.pset.name(tp.main)));
          PCTAGG_ASSIGN_OR_RETURN(size_t cc,
                                  ColIndex(t, plan.pset.name(tp.count)));
          cell = AvgColumn(t.column(sc), t.column(cc));
          break;
        }
        default: {
          PCTAGG_ASSIGN_OR_RETURN(size_t c,
                                  ColIndex(t, plan.pset.name(tp.main)));
          type = t.schema().column(c).type;
          cell = t.column(c);
          break;
        }
      }
      PCTAGG_RETURN_IF_ERROR(
          block.AddColumn({term.output_name, type}, std::move(cell)));
    }
    if (li == 0) {
      out = std::move(block);
    } else {
      PCTAGG_RETURN_IF_ERROR(InsertInto(&out, block));
    }
  }
  op.SetRows(out.num_rows(), out.num_rows());
  op.SetDetail("levels=" + std::to_string(plan.sets.size()));
  return out;
}

// Horizontal assembly: each level pivots its partial table at its own
// grouping columns; blocks land in one result whose schema is the union
// grouping columns (NULL where rolled away) + GROUPING() ids + the union of
// all pivot columns + the extra aggregates.
Result<Table> AssembleHorizontal(
    const CorePlan& plan, const LevelTables& levels, size_t dop,
    obs::QueryTrace* trace) {
  const AnalyzedQuery& query = *plan.query;
  const HorizontalPlan& h = plan.horizontal;
  PivotOptions popt;
  popt.func = h.pivot_func;
  popt.default_zero = h.hterm->has_default;
  popt.percent_of_group_total = h.is_pct;
  std::vector<AggSpec> extra_partials;
  for (size_t p : h.extra_partials) {
    extra_partials.push_back(plan.pset.specs()[p]);
  }

  struct LevelBlock {
    const std::vector<std::string>* set;
    Table pivot;
    Table extras;
    size_t rows = 0;
  };
  std::vector<LevelBlock> blocks(plan.sets.size());
  for (size_t li = 0; li < plan.sets.size(); ++li) {
    const Table& t = *levels[li];
    LevelBlock& b = blocks[li];
    b.set = &plan.sets[li];
    {
      obs::ScopedTraceNode scope(AddNode(
          trace, "lattice",
          "lattice-pivot: level " + LevelName(*b.set) + " " +
              std::string(AggFuncName(popt.func)) + "(" +
              plan.pset.name(h.main) + ") BY " +
              Join(h.hterm->by_columns, ", ") +
              (h.is_pct ? " percent-of-group-total" : "")));
      PCTAGG_ASSIGN_OR_RETURN(
          b.pivot, HashDispatchPivot(t, *b.set, h.hterm->by_columns,
                                     Col(plan.pset.name(h.main)), popt, dop));
    }
    b.rows = b.pivot.num_rows();
    if (h.extras.empty()) continue;
    // Both the pivot and this re-aggregation emit groups in first-seen
    // order over the same partial table, so the rows align positionally.
    PCTAGG_ASSIGN_OR_RETURN(b.extras,
                            RollUp(t, *b.set, extra_partials, {}, dop));
    if (b.extras.num_rows() != b.rows) {
      // The global () level over an empty input: the pivot has no BY
      // values and so no rows, while the extras keep their single global
      // row — the one row the materialized global Hpct returns.
      if (!b.set->empty() || b.rows != 0 || b.extras.num_rows() != 1) {
        return Status::Internal("lattice extras misaligned with pivot block");
      }
      b.rows = 1;
    }
  }

  // Union of the per-level pivot columns, in first-appearance order across
  // blocks. Every level sees the same BY combinations of the (filtered) fact
  // in the same first-seen order, so this matches each block's own order; the
  // union form only matters if a level's pivot came up empty.
  std::vector<ColumnDef> master;
  for (const LevelBlock& b : blocks) {
    for (size_t c = b.set->size(); c < b.pivot.num_columns(); ++c) {
      const ColumnDef& def = b.pivot.schema().column(c);
      bool seen = false;
      for (const ColumnDef& m : master) {
        seen |= EqualsIgnoreCase(m.name, def.name);
      }
      if (!seen) master.push_back(def);
    }
  }

  obs::ScopedTraceNode scope(AddNode(
      trace, "lattice",
      StrFormat("lattice-assemble: %zu level(s), %zu pivot column(s) + "
                "GROUPING ids",
                blocks.size(), master.size())));
  obs::OpScope op("assemble");
  Table out;
  for (size_t bi = 0; bi < blocks.size(); ++bi) {
    const LevelBlock& b = blocks[bi];
    // Copies pivot column `name` when this block has it, else a constant.
    auto pivot_column = [&b](const std::string& name, DataType type,
                             const Value& missing) -> Column {
      if (b.pivot.num_rows() == b.rows) {
        for (size_t c = 0; c < b.pivot.num_columns(); ++c) {
          if (EqualsIgnoreCase(b.pivot.schema().column(c).name, name)) {
            return b.pivot.column(c);
          }
        }
      }
      return ConstantColumn(type, missing, b.rows);
    };
    Table block;
    for (const std::string& g : query.group_by) {
      PCTAGG_ASSIGN_OR_RETURN(size_t fc, query.schema.FindColumn(g));
      const ColumnDef& def = query.schema.column(fc);
      PCTAGG_RETURN_IF_ERROR(block.AddColumn(
          def, ContainsColumn(*b.set, g)
                   ? pivot_column(g, def.type, Value::Null())
                   : ConstantColumn(def.type, Value::Null(), b.rows)));
    }
    for (const AnalyzedTerm& term : query.terms) {
      if (term.func != TermFunc::kGrouping) continue;
      PCTAGG_RETURN_IF_ERROR(block.AddColumn(
          {term.output_name, DataType::kInt64},
          ConstantColumn(
              DataType::kInt64,
              Value::Int64(ContainsColumn(*b.set, term.scalar_column) ? 0 : 1),
              b.rows)));
    }
    for (const ColumnDef& m : master) {
      const Value missing = !popt.default_zero ? Value::Null()
                            : m.type == DataType::kInt64
                                ? Value::Int64(0)
                                : Value::Float64(0.0);
      PCTAGG_RETURN_IF_ERROR(
          block.AddColumn(m, pivot_column(m.name, m.type, missing)));
    }
    for (const HorizontalPlan::Extra& e : h.extras) {
      PCTAGG_ASSIGN_OR_RETURN(size_t mc,
                              ColIndex(b.extras, plan.pset.name(e.main)));
      if (e.count != kNone) {
        PCTAGG_ASSIGN_OR_RETURN(size_t cc,
                                ColIndex(b.extras, plan.pset.name(e.count)));
        PCTAGG_RETURN_IF_ERROR(block.AddColumn(
            {e.term->output_name, DataType::kFloat64},
            AvgColumn(b.extras.column(mc), b.extras.column(cc))));
      } else {
        PCTAGG_RETURN_IF_ERROR(block.AddColumn(
            {e.term->output_name, b.extras.schema().column(mc).type},
            b.extras.column(mc)));
      }
    }
    if (bi == 0) {
      out = std::move(block);
    } else {
      PCTAGG_RETURN_IF_ERROR(InsertInto(&out, block));
    }
  }
  op.SetRows(out.num_rows(), out.num_rows());
  op.SetDetail("levels=" + std::to_string(blocks.size()));
  return out;
}

Result<Table> ExecuteCore(const CorePlan& plan, const Table& fact,
                          SummaryCache* summaries, obs::QueryTrace* trace,
                          size_t dop, bool shared_scan,
                          std::shared_ptr<const Table> finest,
                          bool* from_cache) {
  PCTAGG_ASSIGN_OR_RETURN(
      LevelTables levels,
      ComputeLevels(plan, fact, summaries, trace, dop, shared_scan,
                    std::move(finest), from_cache));
  return plan.horizontal.hterm != nullptr
             ? AssembleHorizontal(plan, levels, dop, trace)
             : AssembleVertical(plan, levels, dop, trace);
}

}  // namespace

std::string RenderStage(const std::vector<std::string>& group_by,
                        const std::vector<AggSpec>& aggs,
                        const std::string& from, const ExprPtr& where) {
  std::vector<std::string> cols = group_by;
  for (std::string& a : RenderEach(aggs)) cols.push_back(std::move(a));
  std::string sql = "SELECT " + Join(cols, ", ") + " FROM " + from;
  if (where != nullptr) sql += " WHERE " + where->ToString();
  if (!group_by.empty()) sql += " GROUP BY " + Join(group_by, ", ");
  return sql;
}

bool PartialPlanSupported(const AnalyzedQuery& query, std::string* why) {
  auto fail = [why](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  // Grouping-set queries have no other evaluator and keep their own wording;
  // plain queries surface these reasons only when sharded.
  const bool sets = query.has_grouping_sets;
  if (query.query_class == QueryClass::kProjection) {
    return fail("projection queries have no distributive partials");
  }
  if (query.query_class == QueryClass::kWindow) {
    return fail(sets ? "window functions cannot be combined with grouping sets"
                     : "window functions are not distributed");
  }
  size_t by_terms = 0;
  for (const AnalyzedTerm& t : query.terms) {
    if (t.func == TermFunc::kScalar || t.func == TermFunc::kGrouping) continue;
    if (t.distinct) {
      return fail(sets ? "count(DISTINCT ...) is not supported with grouping "
                         "sets"
                       : "count(DISTINCT ...) is not distributive across "
                         "shards");
    }
    if (t.func == TermFunc::kVpct || !t.has_by) continue;
    ++by_terms;
    if (t.func == TermFunc::kAvg) {
      return fail(std::string("avg(... BY ...) is not distributive ") +
                  (sets ? "over the lattice" : "across shards") +
                  "; use sum and count terms instead");
    }
  }
  if (query.query_class == QueryClass::kHorizontal && by_terms != 1) {
    return fail(sets ? "grouping sets support exactly one horizontal (BY) "
                       "term per statement"
                     : "distributed execution supports exactly one "
                       "horizontal (BY) term per statement");
  }
  return true;
}

Result<Table> ExecutePartialPlan(const AnalyzedQuery& query, const Table& fact,
                                 SummaryCache* summaries,
                                 obs::QueryTrace* trace, size_t dop,
                                 bool shared_scan, bool* from_cache) {
  PCTAGG_RETURN_IF_ERROR(Unsupported(
      query, query.has_grouping_sets ? "grouping sets" : "partial plan"));
  PCTAGG_ASSIGN_OR_RETURN(CorePlan plan, BuildCorePlan(query));
  return ExecuteCore(plan, fact, summaries, trace, dop, shared_scan, nullptr,
                     from_cache);
}

bool PartialPlanCached(const AnalyzedQuery& query, SummaryCache* summaries) {
  if (summaries == nullptr || query.where != nullptr ||
      !PartialPlanSupported(query)) {
    return false;
  }
  Result<CorePlan> plan = BuildCorePlan(query);
  return plan.ok() &&
         FindCachedAncestor(summaries, query.table_name,
                            plan->levels[plan->finest], plan->pset.specs())
             .has_value();
}

std::string RenderPartialPlan(const AnalyzedQuery& query, bool shared_scan,
                              SummaryCache* summaries) {
  std::string why;
  if (!PartialPlanSupported(query, &why)) {
    return "-- unsupported: " + why + "\n";
  }
  Result<CorePlan> built = BuildCorePlan(query);
  if (!built.ok()) {
    return "-- plan unavailable: " + built.status().message() + "\n";
  }
  const CorePlan& plan = *built;
  const std::vector<AggSpec>& specs = plan.pset.specs();
  const std::vector<std::string>& finest = plan.levels[plan.finest];

  std::string out =
      query.has_grouping_sets
          ? StrFormat("-- grouping-set lattice: %zu level(s) over union %s; "
                      "strategy: %s\n",
                      plan.sets.size(), LevelName(query.group_by).c_str(),
                      shared_scan ? "shared-scan rollup"
                                  : "per-level recompute")
          : "-- partial-summary plan: one level " + LevelName(finest) + "\n";
  std::optional<CachedAncestor> anc;
  if (shared_scan && summaries != nullptr && query.where == nullptr) {
    anc = FindCachedAncestor(summaries, query.table_name, finest, specs);
  }
  std::vector<size_t> order(plan.levels.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&plan](size_t a, size_t b) {
    return plan.levels[a].size() > plan.levels[b].size();
  });
  for (size_t oi = 0; oi < order.size(); ++oi) {
    const std::vector<std::string>& cols = plan.levels[order[oi]];
    if (oi == 0 && anc.has_value()) {
      out += (anc->exact ? "cache: " : "cache-ancestor: ") +
             RenderStage(cols, CombineSpecs(specs),
                         "cached" + LevelName(anc->entry.recipe.group_by),
                         nullptr) +
             ";\n";
    } else if (oi == 0 || !shared_scan) {
      out += "scan: " +
             RenderStage(cols, specs, query.table_name, query.where) + ";\n";
    } else {
      out += "rollup: " +
             RenderStage(cols, CombineSpecs(specs),
                         "lattice" + LevelName(finest), nullptr) +
             ";\n";
    }
  }
  if (plan.horizontal.hterm != nullptr) {
    out += "-- assemble: pivot " + plan.pset.name(plan.horizontal.main) +
           " BY " + Join(plan.horizontal.hterm->by_columns, ", ") +
           (plan.horizontal.is_pct ? " as percent of group total" : "") +
           " per level";
  } else {
    out += "-- assemble: SELECT-order columns per level, Vpct divides by "
           "totals rolled up fine to coarse";
  }
  out += query.has_grouping_sets
             ? " + GROUPING() ids, blocks concatenated in statement order\n"
             : "\n";
  return out;
}

Result<std::shared_ptr<const Table>> ScanPartials(
    const std::string& table_name, const Table& fact, const ExprPtr& where,
    const std::vector<std::string>& cols, const std::vector<AggSpec>& partials,
    SummaryCache* summaries, size_t dop) {
  return ScanLevel(table_name, fact, where, cols, partials, summaries,
                   /*trace=*/nullptr, dop, /*allow_ancestor=*/true,
                   /*from_cache=*/nullptr);
}

Result<Table> AssembleFromAncestor(const AnalyzedQuery& query,
                                   const Table& ancestor,
                                   const SummaryRecipe& recipe,
                                   obs::QueryTrace* trace, size_t dop) {
  PCTAGG_RETURN_IF_ERROR(Unsupported(query, "partial plan"));
  PCTAGG_ASSIGN_OR_RETURN(CorePlan plan, BuildCorePlan(query));
  const std::vector<std::string>& cols = plan.levels[plan.finest];
  std::vector<std::string> from;
  if (!Subsumes(recipe.group_by, cols) ||
      !MatchPartials(plan.pset.specs(), recipe.aggs, &from)) {
    return Status::Internal("ancestor partials do not cover the plan");
  }
  std::shared_ptr<const Table> finest;
  {
    obs::ScopedTraceNode scope(
        AddNode(trace, "mqo",
                "mqo-rollup: level " + LevelName(cols) + " from batch " +
                    LevelName(recipe.group_by)));
    PCTAGG_ASSIGN_OR_RETURN(
        Table t, RollUp(ancestor, cols, plan.pset.specs(), from, dop));
    finest = Share(std::move(t));
  }
  const Table no_fact;  // never scanned: the finest level is given
  return ExecuteCore(plan, no_fact, nullptr, trace, dop, /*shared_scan=*/true,
                     std::move(finest), nullptr);
}

Result<DistPartialPlan> BuildDistributedPartialPlan(
    const AnalyzedQuery& query) {
  PCTAGG_RETURN_IF_ERROR(Unsupported(query, "distributed"));
  PCTAGG_ASSIGN_OR_RETURN(CorePlan plan, BuildCorePlan(query));
  DistPartialPlan dp;
  dp.finest_cols = plan.levels[plan.finest];
  dp.partials = plan.pset.specs();
  dp.combine = CombineSpecs(dp.partials);
  dp.partial_sql =
      RenderStage(dp.finest_cols, dp.partials, query.table_name, query.where);
  return dp;
}

Result<Table> AssembleFromPartials(const AnalyzedQuery& query,
                                   std::shared_ptr<const Table> finest,
                                   obs::QueryTrace* trace, size_t dop) {
  PCTAGG_RETURN_IF_ERROR(Unsupported(query, "distributed"));
  PCTAGG_ASSIGN_OR_RETURN(CorePlan plan, BuildCorePlan(query));
  AddNode(trace, "fused",
          "merged-partials: level " + LevelName(plan.levels[plan.finest]));
  const Table no_fact;  // never scanned: the finest level is given
  return ExecuteCore(plan, no_fact, nullptr, trace, dop, /*shared_scan=*/true,
                     std::move(finest), nullptr);
}

}  // namespace pctagg
