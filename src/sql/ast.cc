#include "sql/ast.h"

#include "common/string_util.h"

namespace pctagg {

const char* TermFuncName(TermFunc func) {
  switch (func) {
    case TermFunc::kScalar:
      return "";
    case TermFunc::kSum:
      return "sum";
    case TermFunc::kCount:
    case TermFunc::kCountStar:
      return "count";
    case TermFunc::kAvg:
      return "avg";
    case TermFunc::kMin:
      return "min";
    case TermFunc::kMax:
      return "max";
    case TermFunc::kVpct:
      return "Vpct";
    case TermFunc::kHpct:
      return "Hpct";
    case TermFunc::kGrouping:
      return "GROUPING";
  }
  return "?";
}

Result<AggFunc> TermAggFunc(TermFunc func) {
  switch (func) {
    case TermFunc::kSum:
      return AggFunc::kSum;
    case TermFunc::kCount:
      return AggFunc::kCount;
    case TermFunc::kCountStar:
      return AggFunc::kCountStar;
    case TermFunc::kAvg:
      return AggFunc::kAvg;
    case TermFunc::kMin:
      return AggFunc::kMin;
    case TermFunc::kMax:
      return AggFunc::kMax;
    default:
      return Status::Internal("not a vertical aggregate term");
  }
}

std::string SelectTerm::ToString() const {
  std::string out;
  if (func == TermFunc::kScalar) {
    out = argument != nullptr ? argument->ToString() : "?";
  } else {
    out = TermFuncName(func);
    out += "(";
    if (distinct) out += "DISTINCT ";
    out += func == TermFunc::kCountStar ? "*" : argument->ToString();
    if (has_by) out += " BY " + Join(by_columns, ", ");
    if (has_default) out += StrFormat(" DEFAULT %g", default_value);
    out += ")";
    if (has_over) {
      out += " OVER (";
      if (!partition_by.empty()) out += "PARTITION BY " + Join(partition_by, ", ");
      out += ")";
    }
  }
  if (!alias.empty()) out += " AS " + alias;
  return out;
}

std::string SelectStatement::ToString() const {
  std::vector<std::string> rendered;
  rendered.reserve(terms.size());
  for (const SelectTerm& t : terms) rendered.push_back(t.ToString());
  std::string out = "SELECT " + Join(rendered, ", ") + " FROM " + from_table;
  if (where != nullptr) out += " WHERE " + where->ToString();
  if (has_group_by) {
    switch (grouping_kind) {
      case GroupingSetsKind::kNone:
        out += " GROUP BY " + Join(group_by, ", ");
        break;
      case GroupingSetsKind::kCube:
        out += " GROUP BY CUBE(" + Join(grouping_columns, ", ") + ")";
        break;
      case GroupingSetsKind::kRollup:
        out += " GROUP BY ROLLUP(" + Join(grouping_columns, ", ") + ")";
        break;
      case GroupingSetsKind::kSets: {
        std::vector<std::string> sets;
        sets.reserve(grouping_sets.size());
        for (const std::vector<std::string>& s : grouping_sets) {
          sets.push_back("(" + Join(s, ", ") + ")");
        }
        out += " GROUP BY GROUPING SETS (" + Join(sets, ", ") + ")";
        break;
      }
    }
  }
  if (having != nullptr) out += " HAVING " + having->ToString();
  if (!order_by.empty()) {
    std::vector<std::string> keys;
    keys.reserve(order_by.size());
    for (const OrderItem& o : order_by) {
      keys.push_back(o.column + (o.descending ? " DESC" : ""));
    }
    out += " ORDER BY " + Join(keys, ", ");
  }
  if (has_limit) out += " LIMIT " + std::to_string(limit);
  return out + ";";
}

std::string InsertStatement::ToString() const {
  std::string out = "INSERT INTO " + table;
  if (!columns.empty()) out += " (" + Join(columns, ", ") + ")";
  out += " VALUES ";
  std::vector<std::string> rendered;
  rendered.reserve(rows.size());
  for (const std::vector<Value>& row : rows) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (const Value& v : row) cells.push_back(v.ToString());
    rendered.push_back("(" + Join(cells, ", ") + ")");
  }
  return out + Join(rendered, ", ") + ";";
}

std::string DropStatement::ToString() const {
  std::string out = "DROP TABLE ";
  if (if_exists) out += "IF EXISTS ";
  return out + table + ";";
}

std::string CopyStatement::ToString() const {
  std::string out = "COPY " + table + " FROM '" + path + "'";
  if (append) out += " (APPEND)";
  return out + ";";
}

}  // namespace pctagg
