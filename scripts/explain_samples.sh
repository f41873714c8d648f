#!/usr/bin/env bash
# Collects EXPLAIN ANALYZE samples (Vpct, Hpct, 3-dim CUBE lattice) from
# pctagg_shell into bench-artifacts/explain_analyze_samples.txt and checks
# each sample's plan shape on its own: every query runs exactly one fused
# scan of the fact table, and the CUBE's seven coarser levels are rollups.
#
#   scripts/explain_samples.sh [build-dir]   (default: build)
set -euo pipefail

build="${1:-build}"
out=bench-artifacts/explain_analyze_samples.txt
mkdir -p bench-artifacts
: > "$out"

# sql|fused-scan lines|lattice-rollup lines
samples=(
  "SELECT state, Vpct(salesAmt BY state) FROM sales GROUP BY state|1|0"
  "SELECT state, Hpct(salesAmt BY dweek) FROM sales GROUP BY state|1|0"
  "SELECT monthNo, dweek, store, Vpct(salesAmt BY dweek) AS pct, sum(salesAmt) AS s FROM sales GROUP BY CUBE(monthNo, dweek, store)|1|7"
)

status=0
for sample in "${samples[@]}"; do
  IFS='|' read -r sql want_scans want_rollups <<< "$sample"
  text=$(printf '.gen sales sales 100000\nEXPLAIN ANALYZE %s;\n.quit\n' "$sql" |
         "$build/tools/pctagg_shell")
  printf '%s\n' "$text" >> "$out"
  scans=$(grep -c 'fused-scan:' <<< "$text" || true)
  rollups=$(grep -c 'lattice-rollup:' <<< "$text" || true)
  if [ "$scans" -ne "$want_scans" ] || [ "$rollups" -ne "$want_rollups" ]; then
    echo "FAILED: $sql" >&2
    echo "  fused-scan lines: $scans (want $want_scans)," \
         "lattice-rollup lines: $rollups (want $want_rollups)" >&2
    status=1
  fi
done
cat "$out"
exit "$status"
