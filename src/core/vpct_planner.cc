#include "core/vpct_planner.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"
#include "core/missing_rows.h"
#include "engine/aggregate.h"
#include "engine/join.h"
#include "engine/pipeline.h"
#include "engine/table_ops.h"
#include "engine/update.h"
#include "obs/trace.h"

namespace pctagg {

namespace {

// Plan-time bookkeeping for one Vpct term.
struct VpctTermInfo {
  size_t term_index = 0;
  ExprPtr argument;
  std::vector<std::string> totals_by;
  std::vector<std::string> by_columns;
  std::string sum_col;     // name of the term's sum in Fk
  std::string tot_col;     // name of the total column in Fj / joined table
  std::string fj_name;     // temporary table holding Fj
  std::string output_name;
};

// Local shorthand with the historical default.
void AddAggregateStep(Plan* plan, const std::string& src,
                      const std::string& dest,
                      std::vector<std::string> group_by,
                      std::vector<AggSpec> aggs, bool cacheable = false) {
  AddCacheableAggregateStep(plan, src, dest, std::move(group_by),
                            std::move(aggs), cacheable);
}

// Adds "CREATE INDEX ON <table> (<columns>)" materialized as a HashIndex in
// the execution context.
void AddIndexStep(Plan* plan, const std::string& table,
                  std::vector<std::string> columns) {
  std::string sql =
      "CREATE INDEX idx_" + table + " ON " + table + " (" + Join(columns, ", ") + ")";
  plan->AddStep(sql, [table, columns = std::move(columns)](
                         ExecContext* ctx) -> Status {
    PCTAGG_ASSIGN_OR_RETURN(const Table* t, ctx->catalog->GetTable(table));
    PCTAGG_ASSIGN_OR_RETURN(HashIndex index, HashIndex::Build(*t, columns));
    ctx->indexes[table] = std::move(index);
    return Status::OK();
  });
}

// Reads the single-row total produced by a grand-total Fj.
Result<Value> ReadScalarTotal(ExecContext* ctx, const std::string& fj_name,
                              const std::string& tot_col) {
  PCTAGG_ASSIGN_OR_RETURN(const Table* fj, ctx->catalog->GetTable(fj_name));
  if (fj->num_rows() != 1) {
    return Status::Internal("grand-total table must have exactly one row");
  }
  PCTAGG_ASSIGN_OR_RETURN(const Column* col, fj->ColumnByName(tot_col));
  return col->GetValue(0);
}

}  // namespace

void AddCacheableAggregateStep(Plan* plan, const std::string& src,
                               const std::string& dest,
                               std::vector<std::string> group_by,
                               std::vector<AggSpec> aggs, bool cacheable) {
  std::vector<std::string> rendered_aggs;
  for (const AggSpec& a : aggs) {
    std::string arg =
        a.func == AggFunc::kCountStar ? "*" : a.input->ToString();
    rendered_aggs.push_back(std::string(AggFuncName(a.func)) + "(" + arg +
                            ") AS " + a.output_name);
  }
  std::vector<std::string> rendered = group_by;
  rendered.insert(rendered.end(), rendered_aggs.begin(), rendered_aggs.end());
  std::string sql = "INSERT INTO " + dest + " SELECT " + Join(rendered, ", ") +
                    " FROM " + src;
  if (!group_by.empty()) sql += " GROUP BY " + Join(group_by, ", ");
  std::string cache_key =
      cacheable ? SummaryCache::KeyFor(src, group_by, Join(rendered_aggs, ","))
                : "";
  plan->AddStep(sql, [src, dest, group_by = std::move(group_by),
                      aggs = std::move(aggs),
                      cache_key](ExecContext* ctx) -> Status {
    uint64_t generation = 0;
    if (!cache_key.empty() && ctx->summaries != nullptr) {
      std::shared_ptr<const Table> cached = ctx->summaries->Lookup(cache_key);
      if (cached != nullptr) {
        obs::MarkCacheHit();
        ctx->catalog->CreateOrReplaceTable(dest, *cached);
        return Status::OK();
      }
      // Snapshot the invalidation generation before scanning `src`; Insert
      // below drops the fill if the base table was replaced (or appended to)
      // meanwhile.
      generation = ctx->summaries->GenerationFor(src);
    }
    PCTAGG_ASSIGN_OR_RETURN(const Table* input, ctx->catalog->GetTable(src));
    PCTAGG_ASSIGN_OR_RETURN(Table out,
                            FusedAggregate(*input, nullptr, group_by, aggs));
    if (!cache_key.empty() && ctx->summaries != nullptr) {
      // Store the recipe alongside the summary so an append to `src` can
      // delta-maintain this entry instead of dropping it (when every agg is
      // distributive — RecipeIsMergeable decides).
      SummaryRecipe recipe{group_by, aggs};
      ctx->summaries->Insert(cache_key, out, generation, &recipe);
    }
    ctx->catalog->CreateOrReplaceTable(dest, std::move(out));
    return Status::OK();
  });
  plan->AddTempTable(dest);
}

Result<Plan> PlanVpctQuery(const AnalyzedQuery& query,
                           const VpctStrategy& strategy) {
  if (query.query_class != QueryClass::kVpct) {
    return Status::InvalidArgument("PlanVpctQuery requires a Vpct query");
  }
  Plan plan;
  std::string source = query.table_name;

  // WHERE: materialize the filtered fact table once; both Fk and (in the
  // two-scan strategy) Fj read it.
  if (query.where != nullptr) {
    std::string fw = NewTempName("Fw");
    ExprPtr where = query.where;
    plan.AddStep("INSERT INTO " + fw + " SELECT * FROM " + source + " WHERE " +
                     where->ToString(),
                 [src = source, fw, where](ExecContext* ctx) -> Status {
                   PCTAGG_ASSIGN_OR_RETURN(const Table* input,
                                           ctx->catalog->GetTable(src));
                   PCTAGG_ASSIGN_OR_RETURN(Table out, Filter(*input, where));
                   ctx->catalog->CreateOrReplaceTable(fw, std::move(out));
                   return Status::OK();
                 });
    plan.AddTempTable(fw);
    source = fw;
  }

  // Collect the Vpct terms and the extra vertical aggregates.
  std::vector<VpctTermInfo> vpct_terms;
  std::vector<AggSpec> extra_aggs;
  for (size_t i = 0; i < query.terms.size(); ++i) {
    const AnalyzedTerm& t = query.terms[i];
    if (t.func == TermFunc::kVpct) {
      VpctTermInfo info;
      info.term_index = i;
      info.argument = t.argument;
      info.totals_by = t.totals_by;
      info.by_columns = t.by_columns;
      info.sum_col = "__psum_" + std::to_string(vpct_terms.size() + 1);
      info.tot_col = "__ptot_" + std::to_string(vpct_terms.size() + 1);
      info.output_name = t.output_name;
      vpct_terms.push_back(std::move(info));
    } else if (t.func != TermFunc::kScalar) {
      if (t.distinct) {
        return Status::AnalysisError(
            "count(DISTINCT ...) cannot be combined with Vpct()");
      }
      PCTAGG_ASSIGN_OR_RETURN(AggFunc func, TermAggFunc(t.func));
      extra_aggs.push_back({func, t.argument, t.output_name});
    }
  }
  if (vpct_terms.empty()) {
    return Status::Internal("Vpct query without Vpct terms");
  }

  // Optional pre-processing of missing rows (m = 1 only: with several BY
  // lists the notion of "missing subgroup" differs per term).
  if (strategy.missing_rows == MissingRowPolicy::kPreProcess) {
    if (vpct_terms.size() != 1) {
      return Status::InvalidArgument(
          "missing-row pre-processing supports a single Vpct term");
    }
    const VpctTermInfo& t = vpct_terms[0];
    if (t.by_columns.empty()) {
      return Status::InvalidArgument(
          "missing-row handling requires a BY clause");
    }
    // A plain-column argument gets an explicit zero in the inserted rows;
    // other expressions (notably the row-count idiom Vpct(1)) evaluate over
    // the synthetic rows as-is — which is exactly the distortion the paper
    // warns pre-processing causes for Vpct(1).
    std::string arg = t.argument->ToString();
    std::vector<std::string> measures;
    if (query.schema.HasColumn(arg)) measures.push_back(arg);
    std::string fx = NewTempName("Fx");
    plan.AddStep(
        "INSERT INTO " + fx + " SELECT * FROM " + source +
            " UNION missing (" + Join(t.totals_by, ", ") + ") x (" +
            Join(t.by_columns, ", ") + ") rows with " + arg + " = 0",
        [src = source, fx, totals = t.totals_by, by = t.by_columns,
         measures](ExecContext* ctx) -> Status {
          PCTAGG_ASSIGN_OR_RETURN(const Table* input,
                                  ctx->catalog->GetTable(src));
          PCTAGG_ASSIGN_OR_RETURN(
              Table out,
              ExpandFactWithMissingRows(*input, totals, by, measures));
          ctx->catalog->CreateOrReplaceTable(fx, std::move(out));
          return Status::OK();
        });
    plan.AddTempTable(fx);
    source = fx;
  }

  // Fk: the finest aggregation level, always computed from F. Cacheable
  // when it reads the base table unfiltered (the shared-summaries case).
  std::string fk = NewTempName("Fk");
  {
    std::vector<AggSpec> aggs;
    for (const VpctTermInfo& t : vpct_terms) {
      aggs.push_back({AggFunc::kSum, t.argument, t.sum_col});
    }
    for (const AggSpec& a : extra_aggs) aggs.push_back(a);
    AddAggregateStep(&plan, source, fk, query.group_by, std::move(aggs),
                     /*cacheable=*/source == query.table_name);
  }

  // Fj per term: from Fk (partial aggregates; sum() is distributive) or from
  // a second scan of F. With lattice reuse, coarser Fj tables aggregate the
  // finest already-materialized Fj that subsumes them (bottom-up over the
  // dimension lattice), processing terms from fine to coarse.
  struct MaterializedLevel {
    std::string table;
    std::string sum_col;
    std::vector<std::string> group_cols;
    std::string measure;  // rendering of the aggregated argument
  };
  std::vector<MaterializedLevel> levels;
  std::vector<size_t> term_order(vpct_terms.size());
  for (size_t i = 0; i < term_order.size(); ++i) term_order[i] = i;
  std::stable_sort(term_order.begin(), term_order.end(),
                   [&vpct_terms](size_t a, size_t b) {
                     return vpct_terms[a].totals_by.size() >
                            vpct_terms[b].totals_by.size();
                   });
  auto subsumes = [](const std::vector<std::string>& outer,
                     const std::vector<std::string>& inner) {
    for (const std::string& i : inner) {
      bool found = false;
      for (const std::string& o : outer) {
        if (EqualsIgnoreCase(o, i)) {
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
    return true;
  };

  for (size_t oi : term_order) {
    VpctTermInfo& t = vpct_terms[oi];
    if (t.totals_by.empty() && !strategy.fj_from_fk) {
      // Grand total from F.
      t.fj_name = NewTempName("Fj");
      AddAggregateStep(&plan, source, t.fj_name, {},
                       {{AggFunc::kSum, t.argument, t.tot_col}});
      continue;
    }
    t.fj_name = NewTempName("Fj");
    if (strategy.fj_from_fk) {
      // Default source: the finest level Fk. Lattice reuse may find a
      // strictly smaller materialized level with a matching measure.
      std::string src_table = fk;
      std::string src_col = t.sum_col;
      if (strategy.lattice_reuse) {
        const MaterializedLevel* best = nullptr;
        for (const MaterializedLevel& level : levels) {
          if (level.measure != t.argument->ToString()) continue;
          if (!subsumes(level.group_cols, t.totals_by)) continue;
          if (best == nullptr ||
              level.group_cols.size() < best->group_cols.size()) {
            best = &level;
          }
        }
        if (best != nullptr) {
          src_table = best->table;
          src_col = best->sum_col;
        }
      }
      AddAggregateStep(&plan, src_table, t.fj_name, t.totals_by,
                       {{AggFunc::kSum, Col(src_col), t.tot_col}});
      levels.push_back(
          {t.fj_name, t.tot_col, t.totals_by, t.argument->ToString()});
    } else {
      AddAggregateStep(&plan, source, t.fj_name, t.totals_by,
                       {{AggFunc::kSum, t.argument, t.tot_col}});
    }
    if (!t.totals_by.empty()) {
      if (strategy.matching_indexes) {
        AddIndexStep(&plan, t.fj_name, t.totals_by);
      } else {
        // Deliberately mismatched index: keyed on the total value column, so
        // the join cannot probe it and builds its own table (Table 4 col 2).
        AddIndexStep(&plan, t.fj_name, {t.tot_col});
      }
    }
  }

  // Produce FV.
  std::string result_name;
  if (strategy.insert_result) {
    // INSERT strategy: join Fk with each Fj, then project the divisions.
    std::string fv = NewTempName("FV");
    // Rendered as the paper's single statement (per term).
    std::vector<std::string> select_parts;
    for (const AnalyzedTerm& term : query.terms) {
      if (term.func == TermFunc::kScalar) {
        select_parts.push_back(term.scalar_column);
      }
    }
    for (const VpctTermInfo& t : vpct_terms) {
      select_parts.push_back("CASE WHEN Fj." + t.tot_col + " <> 0 THEN Fk." +
                             t.sum_col + " / Fj." + t.tot_col +
                             " ELSE NULL END AS " + t.output_name);
    }
    for (const AggSpec& a : extra_aggs) select_parts.push_back(a.output_name);
    std::string sql = "INSERT INTO " + fv + " SELECT " +
                      Join(select_parts, ", ") + " FROM " + fk + " Fk";
    for (const VpctTermInfo& t : vpct_terms) {
      if (t.totals_by.empty()) {
        sql += " CROSS JOIN " + t.fj_name + " Fj";
      } else {
        std::vector<std::string> conds;
        for (const std::string& c : t.totals_by) {
          conds.push_back("Fk." + c + " = Fj." + c);
        }
        sql += " JOIN " + t.fj_name + " Fj ON " + Join(conds, " AND ");
      }
    }

    plan.AddStep(sql, [fk, fv, vpct_terms, extra_aggs,
                       terms = query.terms](ExecContext* ctx) -> Status {
      PCTAGG_ASSIGN_OR_RETURN(const Table* fk_table, ctx->catalog->GetTable(fk));
      Table current = *fk_table;
      // Grand-total terms are folded in at projection time.
      std::vector<Value> scalar_totals(vpct_terms.size());
      for (size_t i = 0; i < vpct_terms.size(); ++i) {
        const VpctTermInfo& t = vpct_terms[i];
        if (t.totals_by.empty()) {
          PCTAGG_ASSIGN_OR_RETURN(scalar_totals[i],
                                  ReadScalarTotal(ctx, t.fj_name, t.tot_col));
          continue;
        }
        PCTAGG_ASSIGN_OR_RETURN(const Table* fj,
                                ctx->catalog->GetTable(t.fj_name));
        // Fj is keyed uniquely on the common subkey: the join reduces to a
        // vectorized totals-column fetch; the surviving Fk columns are
        // carried through without row materialization (bulk INSERT..SELECT).
        PCTAGG_ASSIGN_OR_RETURN(
            Column totals,
            LookupColumn(current, *fj, t.totals_by, t.totals_by, t.tot_col,
                         ctx->IndexFor(t.fj_name)));
        PCTAGG_RETURN_IF_ERROR(
            current.AddColumn({t.tot_col, totals.type()}, std::move(totals)));
      }
      // Final projection in SELECT-list order.
      std::vector<ProjectSpec> specs;
      size_t v = 0;
      for (const AnalyzedTerm& term : terms) {
        if (term.func == TermFunc::kScalar) {
          specs.push_back({Col(term.scalar_column), term.output_name});
        } else if (term.func == TermFunc::kVpct) {
          const VpctTermInfo& t = vpct_terms[v];
          ExprPtr divisor = t.totals_by.empty()
                                ? (scalar_totals[v].is_null()
                                       ? NullLit(DataType::kFloat64)
                                       : Lit(scalar_totals[v]))
                                : Col(t.tot_col);
          // Division yields NULL on zero/NULL divisors by construction.
          specs.push_back({Div(Col(t.sum_col), divisor), t.output_name});
          ++v;
        } else {
          specs.push_back({Col(term.output_name), term.output_name});
        }
      }
      PCTAGG_ASSIGN_OR_RETURN(Table fv_table, Project(current, specs));
      ctx->catalog->CreateOrReplaceTable(fv, std::move(fv_table));
      return Status::OK();
    });
    plan.AddTempTable(fv);
    result_name = fv;
  } else {
    // UPDATE strategy: divide Fk's sum columns in place; FV = Fk.
    for (const VpctTermInfo& t : vpct_terms) {
      if (t.totals_by.empty()) {
        std::string sql = "UPDATE " + fk + " SET " + t.sum_col + " = " +
                          t.sum_col + " / (SELECT " + t.tot_col + " FROM " +
                          t.fj_name + ")";
        plan.AddStep(sql, [fk, t](ExecContext* ctx) -> Status {
          PCTAGG_ASSIGN_OR_RETURN(Value total,
                                  ReadScalarTotal(ctx, t.fj_name, t.tot_col));
          PCTAGG_ASSIGN_OR_RETURN(Table* fk_table, ctx->catalog->GetTable(fk));
          ExprPtr divisor = total.is_null() ? NullLit(DataType::kFloat64)
                                            : Lit(total);
          PCTAGG_ASSIGN_OR_RETURN(size_t col,
                                  fk_table->schema().FindColumn(t.sum_col));
          PCTAGG_ASSIGN_OR_RETURN(
              Column divided,
              Div(Col(t.sum_col), divisor)->Evaluate(*fk_table));
          // In-place rewrite of the measure column (type widens to FLOAT64).
          Schema fixed;
          std::vector<Column> cols;
          for (size_t c = 0; c < fk_table->num_columns(); ++c) {
            ColumnDef def = fk_table->schema().column(c);
            if (c == col) def.type = DataType::kFloat64;
            fixed.AddColumn(def);
            cols.push_back(c == col ? std::move(divided)
                                    : fk_table->column(c));
          }
          *fk_table = Table(std::move(fixed), std::move(cols));
          return Status::OK();
        });
        continue;
      }
      std::vector<std::string> conds;
      for (const std::string& c : t.totals_by) {
        conds.push_back(fk + "." + c + " = Fj." + c);
      }
      std::string sql = "UPDATE " + fk + " SET " + t.sum_col +
                        " = CASE WHEN Fj." + t.tot_col + " <> 0 THEN " + fk +
                        "." + t.sum_col + " / Fj." + t.tot_col +
                        " ELSE NULL END FROM " + t.fj_name + " Fj WHERE " +
                        Join(conds, " AND ");
      plan.AddStep(sql, [fk, t](ExecContext* ctx) -> Status {
        PCTAGG_ASSIGN_OR_RETURN(Table* fk_table, ctx->catalog->GetTable(fk));
        PCTAGG_ASSIGN_OR_RETURN(const Table* fj,
                                ctx->catalog->GetTable(t.fj_name));
        return KeyedDivideUpdate(fk_table, t.totals_by, t.sum_col, *fj,
                                 t.totals_by, t.tot_col,
                                 ctx->IndexFor(t.fj_name));
      });
    }
    // Expose the sum columns under their SELECT-list names. FV = Fk.
    std::string sql = "/* FV = " + fk + " */ RENAME";
    std::vector<std::pair<std::string, std::string>> renames;
    for (const VpctTermInfo& t : vpct_terms) {
      renames.emplace_back(t.sum_col, t.output_name);
      sql += " " + t.sum_col + " TO " + t.output_name;
    }
    plan.AddStep(sql, [fk, renames](ExecContext* ctx) -> Status {
      PCTAGG_ASSIGN_OR_RETURN(Table* fk_table, ctx->catalog->GetTable(fk));
      for (const auto& [from, to] : renames) {
        PCTAGG_ASSIGN_OR_RETURN(size_t idx, fk_table->schema().FindColumn(from));
        PCTAGG_RETURN_IF_ERROR(fk_table->RenameColumn(idx, to));
      }
      return Status::OK();
    });
    result_name = fk;
  }

  // Optional post-processing of missing rows.
  if (strategy.missing_rows == MissingRowPolicy::kPostProcess) {
    if (vpct_terms.size() != 1) {
      return Status::InvalidArgument(
          "missing-row post-processing supports a single Vpct term");
    }
    const VpctTermInfo& t = vpct_terms[0];
    if (t.by_columns.empty()) {
      return Status::InvalidArgument(
          "missing-row handling requires a BY clause");
    }
    std::string sql = "INSERT INTO " + result_name +
                      " missing rows over (" + Join(t.totals_by, ", ") +
                      ") x (" + Join(t.by_columns, ", ") + ") with " +
                      t.output_name + " = 0";
    plan.AddStep(sql, [fact = query.table_name, result = result_name,
                       t](ExecContext* ctx) -> Status {
      PCTAGG_ASSIGN_OR_RETURN(const Table* fact_table,
                              ctx->catalog->GetTable(fact));
      PCTAGG_ASSIGN_OR_RETURN(Table* result_table,
                              ctx->catalog->GetTable(result));
      return InsertMissingResultRows(*fact_table, t.totals_by, t.by_columns,
                                     {t.output_name}, result_table);
    });
  }

  // Optional final ORDER BY over the grouping columns.
  if (strategy.order_result && !query.group_by.empty()) {
    std::string sql = "/* display */ ORDER BY " + Join(query.group_by, ", ");
    plan.AddStep(sql, [result = result_name,
                       group_by = query.group_by](ExecContext* ctx) -> Status {
      PCTAGG_ASSIGN_OR_RETURN(Table* t, ctx->catalog->GetTable(result));
      std::vector<std::string> sortable;
      for (const std::string& g : group_by) {
        if (t->schema().HasColumn(g)) sortable.push_back(g);
      }
      if (sortable.empty()) return Status::OK();
      PCTAGG_ASSIGN_OR_RETURN(Table sorted,
                              SortBy(*t, AscendingKeys(sortable)));
      *t = std::move(sorted);
      return Status::OK();
    });
  }

  plan.set_result_table(result_name);
  return plan;
}

}  // namespace pctagg
