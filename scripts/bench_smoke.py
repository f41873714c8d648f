#!/usr/bin/env python3
"""CI bench-smoke regression guard.

Runs a standalone bench binary (bench_parallel_scaling by default; any
binary emitting the same JSON shape, e.g. bench_dictionary with
--env-prefix PCTAGG_DICT_BENCH --json-name BENCH_dictionary.json) at a
reduced size and compares the machine-independent ratio metrics against the
committed baseline at the repository root:

  * aggregate.dop[].speedup_vs_seed — the kernel rewrite's speedup over the
    seed scalar loop, per DOP. Absolute milliseconds vary wildly across CI
    hosts; this ratio is measured seed-vs-new on the *same* host in the same
    process, so it transfers.
  * aggregate.dop[].ms at DOP=1 — the kernel's absolute serial time, as a
    cross-check: the allocation-heavy seed reference loop is the noisiest
    part of the ratio, so a ratio drop with stable absolute time is noise,
    not a regression.

Fails (exit 1) only when BOTH the DOP=1 speedup ratio drops AND the DOP=1
absolute time rises by more than --max-regression-pct versus the committed
baseline — a real kernel regression moves both; host noise moves one.

DOP>1 rows measure scaling on the CPUs the process may use, so they are
printed as "not comparable" when the baseline's num_cores differs from this
host's (the CPUs in this process's affinity mask).

The fresh JSON and the comparison report land in --out for artifact upload.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile


def load_json(path):
    with open(path) as f:
        return json.load(f)


def by_dop(report, field):
    return {row["dop"]: row[field] for row in report["aggregate"]["dop"]}


def host_cores():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--binary", required=True,
                        help="path to the bench binary")
    parser.add_argument("--baseline", required=True,
                        help="committed baseline JSON to compare against")
    parser.add_argument("--out", default="bench-artifacts",
                        help="directory for the fresh JSON + report")
    parser.add_argument("--env-prefix", default="PCTAGG_PARALLEL_BENCH",
                        help="prefix of the binary's _ROWS/_REPS env vars")
    parser.add_argument("--json-name", default="BENCH_parallel.json",
                        help="JSON file the binary writes into its cwd")
    parser.add_argument("--max-regression-pct", type=float, default=25.0,
                        help="allowed drop in dop=1 speedup_vs_seed")
    parser.add_argument("--rows", type=int, default=None,
                        help="sales rows (default: the baseline's row count — "
                             "speedup_vs_seed grows with input size, so the "
                             "guard is only meaningful at matching size)")
    parser.add_argument("--reps", type=int, default=None,
                        help="repetitions, best-of (default: the baseline's)")
    args = parser.parse_args()

    baseline = load_json(args.baseline)
    if args.reps is None:
        args.reps = baseline.get("repetitions", 3)
    if args.rows is None:
        args.rows = baseline["rows"]
    elif args.rows != baseline["rows"]:
        print("warning: --rows %d differs from the baseline's %d; the "
              "speedup guard may mis-fire" % (args.rows, baseline["rows"]))
    os.makedirs(args.out, exist_ok=True)

    # The binary writes its JSON into its cwd; run it in a scratch directory
    # so the committed baseline is never clobbered.
    env = dict(os.environ)
    env[args.env_prefix + "_ROWS"] = str(args.rows)
    env[args.env_prefix + "_REPS"] = str(args.reps)
    binary = os.path.abspath(args.binary)
    smoke_name = args.json_name.replace(".json", "_smoke.json")
    with tempfile.TemporaryDirectory() as scratch:
        proc = subprocess.run([binary, "--smoke"], cwd=scratch, env=env,
                              stdout=subprocess.PIPE)
        if proc.returncode != 0:
            print("FAIL: bench binary exited %d (its own correctness/budget "
                  "checks or a setup error)" % proc.returncode)
            return 1
        fresh = json.loads(proc.stdout)
        shutil.copy(os.path.join(scratch, args.json_name),
                    os.path.join(args.out, smoke_name))

    base_speedup = by_dop(baseline, "speedup_vs_seed")
    fresh_speedup = by_dop(fresh, "speedup_vs_seed")
    base_ms = by_dop(baseline, "ms")
    fresh_ms = by_dop(fresh, "ms")

    cores = host_cores()
    base_cores = baseline.get("num_cores")
    lines = ["bench smoke: %d rows, %d reps (baseline: %d rows, %s cores; "
             "host: %d cores)"
             % (args.rows, args.reps, baseline["rows"], base_cores, cores)]
    failed = False
    for dop in sorted(base_speedup):
        if dop not in fresh_speedup:
            lines.append("dop=%d: MISSING from fresh run" % dop)
            failed = True
            continue
        if dop > 1 and base_cores != cores:
            lines.append(
                "dop=%d: not comparable (baseline measured on %s cores, "
                "host has %d): ms %.2f -> %.2f"
                % (dop, base_cores, cores, base_ms[dop], fresh_ms[dop]))
            continue
        ratio_pct = ((fresh_speedup[dop] - base_speedup[dop])
                     / base_speedup[dop] * 100.0)
        ms_pct = (fresh_ms[dop] - base_ms[dop]) / base_ms[dop] * 100.0
        # Only DOP=1 is a hard guard: multi-worker rows measure scheduling on
        # whatever core count the CI host happens to have. Both signals must
        # breach the budget — see the module docstring.
        guard = dop == 1
        verdict = "ok"
        if (guard and ratio_pct < -args.max_regression_pct
                and ms_pct > args.max_regression_pct):
            verdict = "FAIL (> %.0f%% regression)" % args.max_regression_pct
            failed = True
        lines.append(
            "dop=%d: speedup_vs_seed %.2f -> %.2f (%+.1f%%), "
            "ms %.2f -> %.2f (%+.1f%%)%s %s"
            % (dop, base_speedup[dop], fresh_speedup[dop], ratio_pct,
               base_ms[dop], fresh_ms[dop], ms_pct,
               " [guard]" if guard else "", verdict))
    lines.append("dop1_regression_pct: baseline %.2f, fresh %.2f"
                 % (baseline["aggregate"]["dop1_regression_pct"],
                    fresh["aggregate"]["dop1_regression_pct"]))

    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    with open(os.path.join(args.out, "bench_smoke_report.txt"), "w") as f:
        f.write(report)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
