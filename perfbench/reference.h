#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

// Result checks. Every answer the benchmark receives over the wire is
// compared with an in-process reference of the same statement computed on
// an independent path: the materialized strategies at dop 1 with the
// summary cache off (core/database.h QueryOptions).

#include <string>
#include <vector>

#include "core/database.h"
#include "engine/table.h"

namespace perfbench {

// Relative bound on FLOAT64 cells: fused, parallel and batched paths may
// reassociate float sums, so a cell passes when
// |got - want| <= kFloatRelBound * max(|got|, |want|) + kFloatAbsFloor.
inline constexpr double kFloatRelBound = 1e-9;
inline constexpr double kFloatAbsFloor = 1e-12;

// The reference path's options.
pctagg::QueryOptions ReferenceOptions();

// RFC-4180 style CSV split: header row first. Empty unquoted fields are
// NULL and come back as the empty string.
std::vector<std::vector<std::string>> ParseCsvRows(const std::string& csv);

// Compares a wire answer (CSV body) with the reference table:
//   - the same header and row count;
//   - rows matched after sorting on every non-FLOAT64 column, whose cells
//     (keys, INT64 and STRING values) must then be identical;
//   - FLOAT64 cells within the relative bound above;
//   - every percentage group sums to 1: each Vpct column over the rows that
//     share its totals key (`query` supplies the terms), and each row's
//     Hpct pivot columns (header names holding '='). Groups whose
//     percentages are all NULL (zero totals) are skipped.
// Returns false and fills `*why` on the first difference.
bool CheckAnswer(const std::string& csv, const pctagg::Table& reference,
                 const pctagg::AnalyzedQuery& query, std::string* why);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
