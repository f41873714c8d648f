#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

// The host record every result carries, so two results from different
// machines (or different CPU allowances on one machine) are never compared.

#include <cstddef>
#include <string>

namespace perfbench {

struct HostRecord {
  long nproc = 0;                   // sysconf(_SC_NPROCESSORS_ONLN)
  std::string affinity_mask;        // sched_getaffinity, hex, CPU 0 lowest
  size_t available_parallelism = 0; // pctagg::AvailableParallelism()
  std::string cpu_model;            // /proc/cpuinfo "model name"
  std::string build_type;           // CMAKE_BUILD_TYPE of this binary
  // FusedAggregate over a fixed 500k-row sales table, median of 5 calls at
  // dop 1 and at dop 4; efficiency = (dop1 / dop4) / 4.
  double probe_dop1_ms = 0;
  double probe_dop4_ms = 0;
  double probe_dop4_efficiency = 0;
};

// Reads the static fields and runs the short dop probe (~0.3 s).
HostRecord ProbeHost();

// One JSON object with every field above.
std::string HostJson(const HostRecord& host);

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
