#include "core/olap_planner.h"

#include "common/string_util.h"
#include "engine/aggregate.h"
#include "engine/table_ops.h"
#include "engine/window.h"

namespace pctagg {

Result<Plan> PlanOlapPercentageQuery(const AnalyzedQuery& query) {
  if (query.query_class != QueryClass::kVpct) {
    return Status::InvalidArgument(
        "the OLAP baseline evaluates vertical percentage queries");
  }
  Plan plan;
  std::string source = query.table_name;
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

  // Render the paper's single-statement formulation.
  std::vector<std::string> select_parts;
  for (const AnalyzedTerm& t : query.terms) {
    if (t.func == TermFunc::kScalar) {
      select_parts.push_back(t.scalar_column);
    } else if (t.func == TermFunc::kVpct) {
      select_parts.push_back(
          "sum(" + t.argument->ToString() + ") OVER (PARTITION BY " +
          Join(query.group_by, ", ") + ") / sum(" + t.argument->ToString() +
          ") OVER (" +
          (t.totals_by.empty() ? "" : "PARTITION BY " + Join(t.totals_by, ", ")) +
          ") AS " + t.output_name);
    } else {
      select_parts.push_back(std::string(TermFuncName(t.func)) + "(" +
                             (t.func == TermFunc::kCountStar
                                  ? "*"
                                  : t.argument->ToString()) +
                             ") OVER (PARTITION BY " +
                             Join(query.group_by, ", ") + ") AS " +
                             t.output_name);
    }
  }
  std::string fv = NewTempName("Folap");
  std::string sql = "INSERT INTO " + fv + " SELECT DISTINCT " +
                    Join(select_parts, ", ") + " FROM " + source;

  plan.AddStep(sql, [source, fv, terms = query.terms,
                     group_by = query.group_by](ExecContext* ctx) -> Status {
    PCTAGG_ASSIGN_OR_RETURN(const Table* input, ctx->catalog->GetTable(source));
    // Evaluate every window over all n fact rows.
    Table wide;
    for (const std::string& g : group_by) {
      PCTAGG_ASSIGN_OR_RETURN(const Column* c, input->ColumnByName(g));
      PCTAGG_ASSIGN_OR_RETURN(size_t idx, input->schema().FindColumn(g));
      PCTAGG_RETURN_IF_ERROR(wide.AddColumn(input->schema().column(idx), *c));
    }
    std::vector<std::string> output_order;
    for (const AnalyzedTerm& t : terms) {
      if (t.func == TermFunc::kScalar) {
        output_order.push_back(t.scalar_column);
        continue;
      }
      if (t.func == TermFunc::kVpct) {
        PCTAGG_ASSIGN_OR_RETURN(
            Column num,
            WindowAggregate(*input, group_by, AggFunc::kSum, t.argument));
        PCTAGG_ASSIGN_OR_RETURN(
            Column den,
            WindowAggregate(*input, t.totals_by, AggFunc::kSum, t.argument));
        // Row-wise division over all n rows (NULL on zero/NULL divisor).
        Table pair;
        PCTAGG_RETURN_IF_ERROR(
            pair.AddColumn({"__num", num.type()}, std::move(num)));
        PCTAGG_RETURN_IF_ERROR(
            pair.AddColumn({"__den", den.type()}, std::move(den)));
        PCTAGG_ASSIGN_OR_RETURN(Column pct,
                                Div(Col("__num"), Col("__den"))->Evaluate(pair));
        PCTAGG_RETURN_IF_ERROR(
            wide.AddColumn({t.output_name, DataType::kFloat64}, std::move(pct)));
      } else {
        PCTAGG_ASSIGN_OR_RETURN(AggFunc func, TermAggFunc(t.func));
        PCTAGG_ASSIGN_OR_RETURN(
            Column agg, WindowAggregate(*input, group_by, func, t.argument));
        PCTAGG_RETURN_IF_ERROR(
            wide.AddColumn({t.output_name, agg.type()}, std::move(agg)));
      }
      output_order.push_back(t.output_name);
    }
    // DISTINCT over the full n-row select list shrinks to the group level.
    std::vector<std::string> all_cols;
    for (size_t c = 0; c < wide.num_columns(); ++c) {
      all_cols.push_back(wide.schema().column(c).name);
    }
    PCTAGG_ASSIGN_OR_RETURN(Table distinct, Distinct(wide, all_cols));
    // Keep only the SELECT-list columns, in order.
    std::vector<ProjectSpec> specs;
    for (const AnalyzedTerm& t : terms) {
      std::string name =
          t.func == TermFunc::kScalar ? t.scalar_column : t.output_name;
      specs.push_back({Col(name), name});
    }
    PCTAGG_ASSIGN_OR_RETURN(Table out, Project(distinct, specs));
    ctx->catalog->CreateOrReplaceTable(fv, std::move(out));
    return Status::OK();
  });
  plan.AddTempTable(fv);
  plan.set_result_table(fv);
  return plan;
}

Result<Plan> PlanWindowQuery(const AnalyzedQuery& query) {
  if (query.query_class != QueryClass::kWindow) {
    return Status::InvalidArgument("PlanWindowQuery requires window terms");
  }
  Plan plan;
  std::string source = query.table_name;
  std::string out_name = NewTempName("Fwin");
  std::vector<std::string> select_parts;
  for (const AnalyzedTerm& t : query.terms) {
    select_parts.push_back(t.func == TermFunc::kScalar
                               ? t.scalar_column
                               : t.output_name);
  }
  std::string sql = "INSERT INTO " + out_name + " SELECT " +
                    Join(select_parts, ", ") + " FROM " + source;
  plan.AddStep(sql, [source, out_name, terms = query.terms,
                     where = query.where](ExecContext* ctx) -> Status {
    PCTAGG_ASSIGN_OR_RETURN(const Table* base, ctx->catalog->GetTable(source));
    Table filtered;
    const Table* input = base;
    if (where != nullptr) {
      PCTAGG_ASSIGN_OR_RETURN(filtered, Filter(*base, where));
      input = &filtered;
    }
    Table out;
    for (const AnalyzedTerm& t : terms) {
      if (t.func == TermFunc::kScalar) {
        PCTAGG_ASSIGN_OR_RETURN(size_t idx,
                                input->schema().FindColumn(t.scalar_column));
        ColumnDef def = input->schema().column(idx);
        def.name = t.output_name;
        PCTAGG_RETURN_IF_ERROR(out.AddColumn(def, input->column(idx)));
      } else {
        PCTAGG_ASSIGN_OR_RETURN(AggFunc func, TermAggFunc(t.func));
        PCTAGG_ASSIGN_OR_RETURN(
            Column agg,
            WindowAggregate(*input, t.partition_by, func, t.argument));
        PCTAGG_RETURN_IF_ERROR(
            out.AddColumn({t.output_name, agg.type()}, std::move(agg)));
      }
    }
    ctx->catalog->CreateOrReplaceTable(out_name, std::move(out));
    return Status::OK();
  });
  plan.AddTempTable(out_name);
  plan.set_result_table(out_name);
  return plan;
}

}  // namespace pctagg
