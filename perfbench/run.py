#!/usr/bin/env python3
"""Builds the pctagg serving benchmark from source and runs it.

Run from the repository root:

  python3 perfbench/run.py --workload adhoc --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --smoke       # all workloads, tiny sizes, checks
  python3 perfbench/run.py --selftest    # loadgen/STATS arithmetic tests

The benchmark binary is built with CMake (Release) into .bench_build/ (or
$CARGO_TARGET_DIR when set), from perfbench/CMakeLists.txt, which compiles
the repository's src/ tree. Build output goes to stderr, so the last line
of stdout is the run's JSON result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["adhoc", "dashboard", "ingest", "sharded"]


def build(target):
    """Configures (once) and builds `target`; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: pctagg sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return None
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", build_dir, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, target)


def smoke():
    """Every workload at its tiny size, untraced and traced."""
    binary = build("pctbench")
    if binary is None:
        return 2
    failed = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            cmd = [binary, "--workload", workload, "--seed", "1",
                   "--seconds", "2", "--trace", trace, "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=170)
            ok = proc.returncode == 0
            failed += 0 if ok else 1
            detail = [l for l in proc.stdout.splitlines()
                      if l.startswith(("FAILED", "note: query samples"))]
            print("%-9s trace=%s %s %s" % (workload, trace,
                                          "ok  " if ok else "FAIL",
                                          " | ".join(detail)))
    return 1 if failed else 0


def main(argv):
    if argv == ["--smoke"]:
        return smoke()
    if argv == ["--selftest"]:
        binary = build("pctbench_selftest")
        return 2 if binary is None else subprocess.run([binary]).returncode
    binary = build("pctbench")
    if binary is None:
        return 2
    sys.stdout.flush()
    return subprocess.run([binary] + argv, cwd=ROOT, timeout=175).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
