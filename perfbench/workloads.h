#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The four named workloads (README.md in this directory says why each one
// exists). Each builds its inputs from opts.seed, sets up several times,
// runs the timed phase, checks every answer, and -- in a traced run --
// replays a seeded sample of requests one layer lower at a time.

#include "harness.h"

namespace perfbench {

RunResult RunAdhoc(const Options& opts);
RunResult RunDashboard(const Options& opts);
RunResult RunIngest(const Options& opts);
RunResult RunSharded(const Options& opts);

// Seed of the generated table for a run seed: data and statements both
// follow --seed, through different streams.
inline uint64_t DataSeed(uint64_t seed) {
  return seed * 0x9E3779B97F4A7C15ull + 20040618ull;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
