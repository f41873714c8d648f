#ifndef PCTAGG_ENGINE_AGGREGATE_H_
#define PCTAGG_ENGINE_AGGREGATE_H_

#include <string>
#include <vector>

#include "engine/expression.h"

namespace pctagg {

// Standard SQL aggregate functions (the paper's "vertical aggregations").
enum class AggFunc {
  kSum,
  kCount,      // count(expr): non-null inputs
  kCountStar,  // count(*): all rows in the group
  kAvg,
  kMin,
  kMax,
};

const char* AggFuncName(AggFunc func);

// One aggregate output column: `func` applied to `input` (ignored for
// count(*)), emitted as `output_name`. `input` may be any scalar expression —
// in particular the sum(CASE WHEN ... THEN A ELSE null END) terms generated
// by the CASE pivot strategy.
struct AggSpec {
  AggFunc func;
  ExprPtr input;  // nullptr only for kCountStar
  std::string output_name;
};

}  // namespace pctagg

#endif  // PCTAGG_ENGINE_AGGREGATE_H_
