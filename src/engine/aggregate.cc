#include "engine/aggregate.h"

namespace pctagg {

const char* AggFuncName(AggFunc func) {
  switch (func) {
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kCount:
    case AggFunc::kCountStar:
      return "count";
    case AggFunc::kAvg:
      return "avg";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
  }
  return "?";
}

}  // namespace pctagg
