#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>

#include "common/string_util.h"
#include "engine/csv.h"

namespace perfbench {

pctagg::QueryOptions ReferenceOptions() {
  pctagg::QueryOptions o;
  o.execution = pctagg::ExecutionMode::kMaterialized;
  o.lattice = pctagg::LatticeMode::kPerLevel;
  o.degree_of_parallelism = 1;
  o.use_summary_cache = false;
  return o;
}

std::vector<std::vector<std::string>> ParseCsvRows(const std::string& csv) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool quoted = false, any = false;
  for (size_t i = 0; i < csv.size(); ++i) {
    const char c = csv[i];
    if (quoted) {
      if (c == '"' && i + 1 < csv.size() && csv[i + 1] == '"') {
        field.push_back('"');
        ++i;
      } else if (c == '"') {
        quoted = false;
      } else {
        field.push_back(c);
      }
      continue;
    }
    if (c == '"') {
      quoted = true;
      any = true;
    } else if (c == ',') {
      row.push_back(std::move(field));
      field.clear();
      any = true;
    } else if (c == '\n') {
      row.push_back(std::move(field));
      field.clear();
      rows.push_back(std::move(row));
      row.clear();
      any = false;
    } else {
      field.push_back(c);
      any = true;
    }
  }
  if (any) {
    row.push_back(std::move(field));
    rows.push_back(std::move(row));
  }
  return rows;
}

namespace {

bool FloatsMatch(const std::string& got, const std::string& want) {
  if (got.empty() || want.empty()) return got == want;  // NULL vs value
  const double a = std::strtod(got.c_str(), nullptr);
  const double b = std::strtod(want.c_str(), nullptr);
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::fabs(a - b) <=
         kFloatRelBound * std::max(std::fabs(a), std::fabs(b)) +
             kFloatAbsFloor;
}

int ColumnIndex(const std::vector<std::string>& header,
                const std::string& name) {
  for (size_t i = 0; i < header.size(); ++i) {
    if (pctagg::EqualsIgnoreCase(header[i], name)) return static_cast<int>(i);
  }
  return -1;
}

// Sums of non-NULL percentages per group; a group passes when its sum is 1
// within 1e-12 per member (the rounding of n divisions and of the two sums
// they divide is far below that; a 1e-7 skew is not), or when every member
// is NULL (a zero or NULL total).
bool CheckGroupSums(const std::map<std::string, std::pair<double, size_t>>& g,
                    const std::string& what, std::string* why) {
  for (const auto& [key, sum_n] : g) {
    if (sum_n.second == 0) continue;
    const double tol = 1e-12 * static_cast<double>(sum_n.second + 1);
    if (std::fabs(sum_n.first - 1.0) > tol) {
      *why = pctagg::StrFormat("%s group [%s] sums to %.17g, not 1",
                               what.c_str(), key.c_str(), sum_n.first);
      return false;
    }
  }
  return true;
}

bool CheckPercentSums(const std::vector<std::vector<std::string>>& rows,
                      const pctagg::AnalyzedQuery& query, std::string* why) {
  const std::vector<std::string>& header = rows[0];
  // Vpct: per totals key. Grouping-set statements mix levels in one
  // result, and HAVING/LIMIT cut groups short; both are skipped.
  const bool whole_groups =
      !query.has_grouping_sets && !query.having && !query.has_limit;
  for (const pctagg::AnalyzedTerm& term : query.terms) {
    if (term.func != pctagg::TermFunc::kVpct || !whole_groups) continue;
    const int pct = ColumnIndex(header, term.output_name);
    if (pct < 0) continue;
    std::vector<int> key_cols;
    for (const std::string& c : term.totals_by) {
      key_cols.push_back(ColumnIndex(header, c));
      if (key_cols.back() < 0) return true;  // totals key not projected
    }
    std::map<std::string, std::pair<double, size_t>> groups;
    for (size_t r = 1; r < rows.size(); ++r) {
      std::string key;
      for (int k : key_cols) key += rows[r][static_cast<size_t>(k)] + "|";
      auto& g = groups[key];
      const std::string& cell = rows[r][static_cast<size_t>(pct)];
      if (cell.empty()) continue;
      g.first += std::strtod(cell.c_str(), nullptr);
      ++g.second;
    }
    if (!CheckGroupSums(groups, "Vpct " + term.output_name, why)) return false;
  }
  // Hpct: the pivot columns ("<by>=<value>") of each row.
  bool has_hpct = false;
  for (const pctagg::AnalyzedTerm& term : query.terms) {
    if (term.func == pctagg::TermFunc::kHpct) has_hpct = true;
  }
  if (!has_hpct) return true;
  std::map<std::string, std::pair<double, size_t>> groups;
  for (size_t r = 1; r < rows.size(); ++r) {
    auto& g = groups[std::to_string(r)];
    for (size_t c = 0; c < header.size(); ++c) {
      if (header[c].find('=') == std::string::npos || rows[r][c].empty()) {
        continue;
      }
      g.first += std::strtod(rows[r][c].c_str(), nullptr);
      ++g.second;
    }
  }
  return CheckGroupSums(groups, "Hpct row", why);
}

}  // namespace

bool CheckAnswer(const std::string& csv, const pctagg::Table& reference,
                 const pctagg::AnalyzedQuery& query, std::string* why) {
  std::vector<std::vector<std::string>> got = ParseCsvRows(csv);
  std::vector<std::vector<std::string>> want =
      ParseCsvRows(pctagg::FormatCsv(reference));
  if (got.empty() || want.empty() || got[0] != want[0]) {
    *why = "header differs: got [" +
           (got.empty() ? std::string() : pctagg::Join(got[0], ",")) +
           "] want [" +
           (want.empty() ? std::string() : pctagg::Join(want[0], ",")) + "]";
    return false;
  }
  if (got.size() != want.size()) {
    *why = pctagg::StrFormat("row count differs: got %zu want %zu",
                             got.size() - 1, want.size() - 1);
    return false;
  }
  const size_t ncols = want[0].size();
  std::vector<bool> is_float(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    is_float[c] = reference.column(c).type() == pctagg::DataType::kFloat64;
  }
  for (size_t r = 1; r < got.size(); ++r) {
    if (got[r].size() != ncols) {
      *why = pctagg::StrFormat("row %zu has %zu fields, want %zu", r,
                               got[r].size(), ncols);
      return false;
    }
  }
  auto exact_key = [&](const std::vector<std::string>& row) {
    std::string key;
    for (size_t c = 0; c < ncols; ++c) {
      if (!is_float[c]) key += row[c] + '\x1f';
    }
    return key;
  };
  auto by_key = [&](const std::vector<std::string>& a,
                    const std::vector<std::string>& b) {
    return exact_key(a) < exact_key(b);
  };
  std::sort(got.begin() + 1, got.end(), by_key);
  std::sort(want.begin() + 1, want.end(), by_key);
  for (size_t r = 1; r < got.size(); ++r) {
    for (size_t c = 0; c < ncols; ++c) {
      const bool ok = is_float[c] ? FloatsMatch(got[r][c], want[r][c])
                                  : got[r][c] == want[r][c];
      if (!ok) {
        *why = pctagg::StrFormat(
            "row [%s] column %s: got '%s' want '%s'",
            pctagg::Join(want[r], ",").c_str(), want[0][c].c_str(),
            got[r][c].c_str(), want[r][c].c_str());
        return false;
      }
    }
  }
  return CheckPercentSums(got, query, why);
}

}  // namespace perfbench
