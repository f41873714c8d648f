#!/usr/bin/env python3
"""Compares two sets of pctbench results, refusing different hosts.

  python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are directories of result records (the files run.py leaves
in .bench_results/) or single record files. Records are grouped by
workload; for each end-to-end metric the script prints both sides' median
and quartiles, the change of the median, and how many seed-paired runs the
change won. It refuses to compare (exit 2) when any two records carry
different host records: CPU count, affinity mask, available parallelism,
CPU model or build type must match, and the dop-4 efficiency probe must
agree within 0.15, or the two sides ran with different CPU allowances.
"""

import json
import os
import statistics
import sys

HOST_FIELDS = ["nproc", "affinity_mask", "available_parallelism",
               "cpu_model", "build_type"]
PROBE_TOLERANCE = 0.15
LOWER_IS_BETTER = {"setup_s", "query_p50_ms", "query_p95_ms", "peak_rss_mb"}


def load(path):
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path)
                       if f.endswith(".json"))
    records = []
    for f in files:
        with open(f) as fh:
            rec = json.load(fh)
        if rec.get("trace") == 0 and not rec.get("smoke"):
            records.append(rec)
    return records


def host_mismatch(records):
    first = records[0]["host"]
    for rec in records[1:]:
        host = rec["host"]
        for field in HOST_FIELDS:
            if host[field] != first[field]:
                return "%s: %r vs %r" % (field, first[field], host[field])
        delta = abs(host["probe_dop4_efficiency"] -
                    first["probe_dop4_efficiency"])
        if delta > PROBE_TOLERANCE:
            return "dop-4 efficiency probe differs by %.2f" % delta
    return None


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(argv[0]), load(argv[1])
    if not base or not change:
        print("compare.py: no untraced full-size records found",
              file=sys.stderr)
        return 2
    why = host_mismatch(base + change)
    if why:
        print("compare.py: refusing to compare different hosts (%s)" % why,
              file=sys.stderr)
        return 2
    for workload in sorted({r["workload"] for r in base + change}):
        b = {r["seed"]: r for r in base if r["workload"] == workload}
        c = {r["seed"]: r for r in change if r["workload"] == workload}
        if not b or not c:
            continue
        print("== %s (%d base runs, %d change runs)" % (workload, len(b),
                                                        len(c)))
        for name in next(iter(b.values()))["result"]["metrics"]:
            bv = [r["result"]["metrics"][name]["value"] for r in b.values()]
            cv = [r["result"]["metrics"][name]["value"] for r in c.values()]
            bm, cm = statistics.median(bv), statistics.median(cv)
            wins = pairs = 0
            for seed in set(b) & set(c):
                x = b[seed]["result"]["metrics"][name]["value"]
                y = c[seed]["result"]["metrics"][name]["value"]
                if x == y:
                    continue
                pairs += 1
                better = y < x if name in LOWER_IS_BETTER else y > x
                wins += 1 if better else 0
            bq, cq = quartiles(bv), quartiles(cv)
            change_pct = 100.0 * (cm - bm) / bm if bm else float("nan")
            print("  %-14s base %10.3f [%9.3f, %9.3f]  change %10.3f "
                  "[%9.3f, %9.3f]  %+7.2f%%  change better in %d/%d pairs"
                  % (name, bm, bq[0], bq[2], cm, cq[0], cq[2], change_pct,
                     wins, pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
