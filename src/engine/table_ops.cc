#include "engine/table_ops.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <unordered_set>

#include "engine/parallel.h"
#include "obs/trace.h"

namespace pctagg {

Result<Table> Project(const Table& input,
                      const std::vector<ProjectSpec>& specs) {
  Table out;
  for (const ProjectSpec& spec : specs) {
    PCTAGG_ASSIGN_OR_RETURN(DataType t, spec.expr->ResultType(input.schema()));
    PCTAGG_ASSIGN_OR_RETURN(Column c, spec.expr->Evaluate(input));
    PCTAGG_RETURN_IF_ERROR(out.AddColumn({spec.output_name, t}, std::move(c)));
  }
  return out;
}

Result<Table> Filter(const Table& input, const ExprPtr& predicate) {
  obs::OpScope op("filter");
  PCTAGG_ASSIGN_OR_RETURN(PredicateMask pred,
                          PredicateMask::Bind(*predicate, input));
  op.SetDetail(pred.evaluator());
  // The selection list fills morsel by morsel in parallel, each morsel
  // writing its kept rows at its own offset; the pieces are then packed in
  // row order, and the output is gathered one column at a time.
  const size_t n = input.num_rows();
  const MorselPlan plan = MorselPlan::Auto(n, CurrentDop());
  std::vector<uint32_t> sel(n);
  std::vector<size_t> kept(plan.num_morsels);
  std::vector<std::vector<uint8_t>> scratch(plan.num_workers);
  RunMorsels(plan, [&](size_t worker, size_t begin, size_t end) {
    kept[begin / plan.morsel_rows] =
        pred.Select(begin, end, sel.data() + begin, &scratch[worker]);
  });
  size_t count = 0;
  for (size_t m = 0; m < plan.num_morsels; ++m) {
    std::memmove(sel.data() + count, sel.data() + plan.Begin(m),
                 kept[m] * sizeof(uint32_t));
    count += kept[m];
  }
  op.SetRows(n, count);
  if (count == 0) return Table(input.schema());
  std::vector<Column> columns;
  columns.reserve(input.num_columns());
  for (size_t c = 0; c < input.num_columns(); ++c) {
    columns.push_back(input.column(c).Gather(sel.data(), count));
  }
  return Table(input.schema(), std::move(columns));
}

Result<Table> Distinct(const Table& input,
                       const std::vector<std::string>& columns) {
  std::vector<size_t> col_idx;
  Schema out_schema;
  for (const std::string& name : columns) {
    PCTAGG_ASSIGN_OR_RETURN(size_t idx, input.schema().FindColumn(name));
    col_idx.push_back(idx);
    out_schema.AddColumn(input.schema().column(idx));
  }
  Table out(out_schema);
  std::unordered_set<std::string> seen;
  std::string key;
  for (size_t row = 0; row < input.num_rows(); ++row) {
    key.clear();
    input.AppendKeyBytes(row, col_idx, &key);
    if (!seen.insert(key).second) continue;
    for (size_t c = 0; c < col_idx.size(); ++c) {
      out.mutable_column(c).AppendFrom(input.column(col_idx[c]), row);
    }
  }
  return out;
}

std::vector<SortKey> AscendingKeys(const std::vector<std::string>& columns) {
  std::vector<SortKey> keys;
  keys.reserve(columns.size());
  for (const std::string& c : columns) keys.push_back({c, false});
  return keys;
}

Result<std::vector<size_t>> SortPermutation(const Table& input,
                                            const std::vector<SortKey>& keys) {
  std::vector<const Column*> cols;
  for (const SortKey& k : keys) {
    PCTAGG_ASSIGN_OR_RETURN(size_t idx, input.schema().FindColumn(k.column));
    cols.push_back(&input.column(idx));
  }
  // Each type compares in its own domain: INT64 as int64 (a double cannot
  // tell 2^53 from 2^53 + 1), FLOAT64 as double, strings by value.
  auto compare = [](const Column& c, size_t a, size_t b) {
    switch (c.type()) {
      case DataType::kInt64: {
        const int64_t x = c.int64_data()[a], y = c.int64_data()[b];
        return x < y ? -1 : (x > y ? 1 : 0);
      }
      case DataType::kFloat64: {
        const double x = c.float64_data()[a], y = c.float64_data()[b];
        return x < y ? -1 : (x > y ? 1 : 0);
      }
      case DataType::kString:
        return c.StringAt(a).compare(c.StringAt(b));
    }
    return 0;
  };
  auto less_at = [&](size_t a, size_t b) {
    for (size_t k = 0; k < cols.size(); ++k) {
      const Column& c = *cols[k];
      const bool desc = keys[k].descending;
      const bool an = c.IsNull(a);
      const bool bn = c.IsNull(b);
      if (an || bn) {
        if (an && bn) continue;
        // NULLs first ascending, last descending.
        return desc ? bn : an;
      }
      const int cmp = compare(c, a, b);
      if (cmp != 0) return desc ? cmp > 0 : cmp < 0;
    }
    return false;
  };
  std::vector<size_t> order(input.num_rows());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), less_at);
  return order;
}

Result<Table> SortBy(const Table& input, const std::vector<SortKey>& keys) {
  PCTAGG_ASSIGN_OR_RETURN(std::vector<size_t> order,
                          SortPermutation(input, keys));
  Table out(input.schema());
  out.Reserve(input.num_rows());
  for (size_t row : order) out.AppendRowFrom(input, row);
  return out;
}

Table Limit(const Table& input, size_t limit) {
  if (limit >= input.num_rows()) return input;
  Table out(input.schema());
  out.Reserve(limit);
  for (size_t row = 0; row < limit; ++row) out.AppendRowFrom(input, row);
  return out;
}

Status InsertInto(Table* dst, const Table& src) {
  if (dst->num_columns() != src.num_columns()) {
    return Status::InvalidArgument("INSERT arity mismatch");
  }
  for (size_t i = 0; i < dst->num_columns(); ++i) {
    if (dst->schema().column(i).type != src.schema().column(i).type) {
      return Status::TypeMismatch("INSERT column type mismatch at position " +
                                  std::to_string(i));
    }
  }
  // Column-at-a-time bulk append: one vector insert per numeric column, one
  // per-distinct-code dictionary translation per string column (see
  // Column::AppendAllFrom), instead of a per-row per-column variant visit.
  for (size_t i = 0; i < dst->num_columns(); ++i) {
    dst->mutable_column(i).AppendAllFrom(src.column(i));
  }
  return Status::OK();
}

}  // namespace pctagg
