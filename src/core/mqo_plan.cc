#include "core/mqo_plan.h"

#include <utility>

#include "common/string_util.h"
#include "core/database.h"
#include "core/lattice_plan.h"

namespace pctagg {

std::string MqoCompatibilityKey(const AnalyzedQuery& query) {
  // The union scan runs under one predicate, so WHERE compatibility is
  // textual equality of the rendered expression (normalized by the parser);
  // semantically equivalent but differently spelled predicates simply land
  // in different batches — correct, just less sharing.
  std::string key = ToLower(query.table_name) + "|";
  if (query.where != nullptr) key += query.where->ToString();
  return key;
}

Result<MqoBatchPlan> PlanMqoBatch(
    const std::vector<const AnalyzedQuery*>& queries) {
  if (queries.empty()) {
    return Status::InvalidArgument("mqo: empty batch");
  }
  MqoBatchPlan plan;
  plan.table = queries[0]->table_name;
  plan.where = queries[0]->where;
  const std::string key = MqoCompatibilityKey(*queries[0]);

  for (const AnalyzedQuery* query : queries) {
    if (MqoCompatibilityKey(*query) != key) {
      return Status::InvalidArgument(
          "mqo: incompatible batch member (table or WHERE differs)");
    }
    PCTAGG_ASSIGN_OR_RETURN(DistPartialPlan dp,
                            BuildDistributedPartialPlan(*query));
    plan.members.push_back({query, dp.finest_cols, dp.partials.size()});
    plan.partials_requested += dp.partials.size();
    for (const std::string& col : dp.finest_cols) {
      bool seen = false;
      for (const std::string& c : plan.scan_cols) {
        seen |= EqualsIgnoreCase(c, col);
      }
      if (!seen) plan.scan_cols.push_back(col);
    }
    for (size_t i = 0; i < dp.partials.size(); ++i) {
      const AggSpec& p = dp.partials[i];
      bool seen = false;
      for (const AggSpec& u : plan.scan_partials) {
        seen |= u.func == p.func &&
                (p.func == AggFunc::kCountStar ||
                 u.input->ToString() == p.input->ToString());
      }
      if (seen) continue;
      const std::string name =
          "__b" + std::to_string(plan.scan_partials.size() + 1);
      plan.scan_partials.push_back({p.func, p.input, name});
      plan.scan_combine.push_back({dp.combine[i].func, Col(name), name});
    }
  }
  // Rendered like DistPartialPlan.partial_sql so shard workers run the
  // batch's union scan through their ordinary PARTIAL verb.
  plan.scan_sql =
      RenderStage(plan.scan_cols, plan.scan_partials, plan.table, plan.where);
  return plan;
}

Result<Table> AssembleMqoMember(const MqoBatchPlan& plan, size_t member,
                                const Table& batch_partials,
                                obs::QueryTrace* trace, size_t dop) {
  const AnalyzedQuery& query = *plan.members[member].query;
  PCTAGG_ASSIGN_OR_RETURN(
      Table assembled,
      AssembleFromAncestor(query, batch_partials,
                           SummaryRecipe{plan.scan_cols, plan.scan_partials},
                           trace, dop));
  return ApplyQueryTail(std::move(assembled), query);
}

Result<std::vector<Table>> ExecuteMqoBatch(
    const MqoBatchPlan& plan, const Table& fact, SummaryCache* summaries,
    const std::vector<obs::QueryTrace*>& traces, size_t dop) {
  PCTAGG_ASSIGN_OR_RETURN(
      std::shared_ptr<const Table> batch,
      ScanPartials(plan.table, fact, plan.where, plan.scan_cols,
                   plan.scan_partials, summaries, dop));
  std::vector<Table> results;
  results.reserve(plan.members.size());
  for (size_t i = 0; i < plan.members.size(); ++i) {
    obs::QueryTrace* trace = i < traces.size() ? traces[i] : nullptr;
    if (trace != nullptr) {
      trace->root().AddChild(
          "mqo",
          StrFormat("mqo-batch: %zu queries share one scan of %s "
                    "(%zu partials deduped from %zu; rows scanned once: "
                    "%llu instead of %zu times)",
                    plan.members.size(), plan.table.c_str(),
                    plan.scan_partials.size(), plan.partials_requested,
                    static_cast<unsigned long long>(fact.num_rows()),
                    plan.members.size()));
    }
    PCTAGG_ASSIGN_OR_RETURN(Table r,
                            AssembleMqoMember(plan, i, *batch, trace, dop));
    results.push_back(std::move(r));
  }
  return results;
}

}  // namespace pctagg
