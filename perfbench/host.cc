#include "host.h"

#include <sched.h>
#include <unistd.h>

#include <fstream>
#include <vector>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "engine/expression.h"
#include "engine/parallel.h"
#include "engine/pipeline.h"
#include "loadgen.h"
#include "workload/generators.h"

#ifndef PCTBENCH_BUILD_TYPE
#define PCTBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string AffinityMaskHex() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return "unknown";
  // Hex digits most-significant first, as taskset prints them.
  int highest = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) highest = cpu;
  }
  if (highest < 0) return "0";
  std::string hex;
  for (int nibble = highest / 4; nibble >= 0; --nibble) {
    int v = 0;
    for (int bit = 0; bit < 4; ++bit) {
      if (CPU_ISSET(nibble * 4 + bit, &set)) v |= 1 << bit;
    }
    hex.push_back("0123456789abcdef"[v]);
  }
  return hex;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon == std::string::npos) break;
      const size_t start = line.find_first_not_of(" \t", colon + 1);
      return start == std::string::npos ? "" : line.substr(start);
    }
  }
  return "unknown";
}

double ProbeMs(const pctagg::Table& table, size_t dop) {
  const std::vector<pctagg::AggSpec> aggs = {
      {pctagg::AggFunc::kSum, pctagg::Col("salesAmt"), "s"}};
  std::vector<double> ms;
  for (int i = 0; i < 5; ++i) {
    pctagg::Stopwatch timer;
    auto r = pctagg::FusedAggregate(table, nullptr, {"itemId"}, aggs, dop);
    ms.push_back(timer.ElapsedMillis());
    if (!r.ok()) return 0;
  }
  return Median(ms);
}

}  // namespace

HostRecord ProbeHost() {
  HostRecord h;
  h.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  h.affinity_mask = AffinityMaskHex();
  h.available_parallelism = pctagg::AvailableParallelism();
  h.cpu_model = CpuModel();
  h.build_type = PCTBENCH_BUILD_TYPE;
  const pctagg::Table table = pctagg::GenerateSales(500000, 1);
  ProbeMs(table, 4);  // warm the pool and the pages
  h.probe_dop1_ms = ProbeMs(table, 1);
  h.probe_dop4_ms = ProbeMs(table, 4);
  if (h.probe_dop4_ms > 0) {
    h.probe_dop4_efficiency = h.probe_dop1_ms / h.probe_dop4_ms / 4.0;
  }
  return h;
}

std::string HostJson(const HostRecord& h) {
  std::string model;
  for (char c : h.cpu_model) {
    if (c == '"' || c == '\\') model.push_back('\\');
    model.push_back(c);
  }
  return pctagg::StrFormat(
      "{\"nproc\": %ld, \"affinity_mask\": \"%s\", "
      "\"available_parallelism\": %zu, \"cpu_model\": \"%s\", "
      "\"build_type\": \"%s\", \"probe_dop1_ms\": %.4f, "
      "\"probe_dop4_ms\": %.4f, \"probe_dop4_efficiency\": %.4f}",
      h.nproc, h.affinity_mask.c_str(), h.available_parallelism, model.c_str(),
      h.build_type.c_str(), h.probe_dop1_ms, h.probe_dop4_ms,
      h.probe_dop4_efficiency);
}

}  // namespace perfbench
