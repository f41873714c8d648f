// pctbench: the repository's wire-level serving benchmark.
//
//   pctbench --workload adhoc|dashboard|ingest|sharded --seed N
//            --seconds S --trace 0|1 [--smoke]
//
// Prints the host record, the stated conditions and every metric by name
// with its unit, then one JSON line: {"correct", "attempted", "failed",
// "metrics"} -- the end-to-end metrics of BENCHMARK.json with --trace 0,
// the per-layer metrics with --trace 1. The same record, with the host
// record, goes to .bench_results/<workload>-seed<N>-trace<T>.json for
// compare.py. Exits 1 when any answer is wrong or any request failed.

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>

#include "common/string_util.h"
#include "host.h"
#include "workloads.h"

namespace {

using perfbench::MetricDef;
using perfbench::RunResult;

// The end-to-end metrics BENCHMARK.json bounds: measured on every
// workload and never 0. The ingest-only and failure metrics of the full
// report are per-layer figures in the JSON (see README.md).
const char* const kBoundedEndToEnd[] = {"setup_s", "query_p50_ms",
                                        "query_p95_ms", "query_qps",
                                        "peak_rss_mb"};

int Usage() {
  std::fprintf(stderr,
               "usage: pctbench --workload adhoc|dashboard|ingest|sharded "
               "--seed N --seconds S --trace 0|1 [--smoke]\n");
  return 2;
}

const char* UnitOf(const std::vector<MetricDef>& defs, const std::string& n) {
  for (const MetricDef& d : defs) {
    if (n == d.name) return d.unit;
  }
  return "";
}

std::string MetricsJson(const RunResult& r, bool trace) {
  std::string out = "{";
  auto add = [&](const std::string& name, const char* unit) {
    auto it = r.metrics.find(name);
    const double v = it == r.metrics.end() ? 0.0 : it->second;
    if (out.size() > 1) out += ", ";
    out += pctagg::StrFormat("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                             name.c_str(), v, unit);
  };
  if (trace) {
    for (const MetricDef& d : perfbench::PerLayerCatalog()) add(d.name, d.unit);
  } else {
    for (const char* name : kBoundedEndToEnd) {
      add(name, UnitOf(perfbench::EndToEndCatalog(), name));
    }
  }
  return out + "}";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += pctagg::StrFormat("\\u%04x", c);
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opts.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opts.trace = std::strcmp(argv[++i], "0") != 0;
      have_trace = true;
    } else if (a == "--smoke") {
      opts.smoke = true;
    } else {
      return Usage();
    }
  }
  if (opts.workload.empty() || opts.seconds <= 0 || !have_trace) return Usage();
  if (opts.smoke && opts.seconds > 2) opts.seconds = 2;

  RunResult (*run)(const perfbench::Options&) = nullptr;
  if (opts.workload == "adhoc") run = perfbench::RunAdhoc;
  if (opts.workload == "dashboard") run = perfbench::RunDashboard;
  if (opts.workload == "ingest") run = perfbench::RunIngest;
  if (opts.workload == "sharded") run = perfbench::RunSharded;
  if (run == nullptr) return Usage();

  // The workload first: its set-up forks, which needs a single-threaded
  // process, and the host probe starts the shared worker pool.
  RunResult r = run(opts);
  const std::string host_json = perfbench::HostJson(perfbench::ProbeHost());
  std::printf("host: %s\n", host_json.c_str());

  for (const std::string& note : r.notes) std::printf("note: %s\n", note.c_str());
  std::set<std::string> printed;
  auto print_all = [&](const std::vector<MetricDef>& defs) {
    for (const MetricDef& d : defs) {
      auto it = r.metrics.find(d.name);
      if (it == r.metrics.end() || !printed.insert(d.name).second) continue;
      std::printf("metric %-30s %14.4f %s\n", d.name, it->second, d.unit);
    }
  };
  print_all(perfbench::EndToEndCatalog());
  if (opts.trace) print_all(perfbench::PerLayerCatalog());
  if (!r.correct) std::printf("FAILED: %s\n", r.first_error.c_str());

  const std::string line = pctagg::StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}",
      r.correct ? "true" : "false", (unsigned long long)r.attempted,
      (unsigned long long)r.failed, MetricsJson(r, opts.trace).c_str());

  // The full record for compare.py: host, run identity, every metric.
  ::mkdir(".bench_results", 0755);
  const std::string path = pctagg::StrFormat(
      ".bench_results/%s-seed%llu-trace%d%s.json", opts.workload.c_str(),
      (unsigned long long)opts.seed, opts.trace ? 1 : 0,
      opts.smoke ? "-smoke" : "");
  if (FILE* f = std::fopen(path.c_str(), "w")) {
    std::string all = "{";
    for (const auto& [name, v] : r.metrics) {
      if (all.size() > 1) all += ", ";
      all += pctagg::StrFormat("%s: %.17g", JsonString(name).c_str(), v);
    }
    all += "}";
    std::fprintf(f,
                 "{\"workload\": %s, \"seed\": %llu, \"seconds\": %.17g, "
                 "\"trace\": %d, \"smoke\": %s, \"host\": %s, \"result\": %s, "
                 "\"all_metrics\": %s, \"first_error\": %s}\n",
                 JsonString(opts.workload).c_str(),
                 (unsigned long long)opts.seed, opts.seconds,
                 opts.trace ? 1 : 0, opts.smoke ? "true" : "false",
                 host_json.c_str(), line.c_str(), all.c_str(),
                 JsonString(r.first_error).c_str());
    std::fclose(f);
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
