#!/usr/bin/env bash
# Rate gate (DESIGN.md §5e, EXPERIMENTS.md E9): the replay benchmark's
# calibrated replay rates must stay at or above the floors recorded in
# results/rate_ledger.txt. For each workload in the ledger it runs the
# plain release `benchmark` binary at seed 0 (11 calibrated rounds; the
# binary exits non-zero on any wrong SimStats) and reads its metric
# lines, `workload metric value unit n=…`. Calibration does not remove
# every stretch of host load, so a workload that reads under a floor runs
# once more, and the gate fails only if that run reads under too. Build
# the binary first:
#
#   cargo build --release -p ulc-bench --bin benchmark && bash scripts/rate_gate.sh
set -euo pipefail
cd "$(dirname "$0")/.."
ledger=results/rate_ledger.txt
exe="${CARGO_TARGET_DIR:-target}/release/benchmark"

# Runs workload $1 once and checks each of its ledger rows
# (workload metric median min max n floor) against its floor. A failed
# benchmark run (a wrong output, a dead child) ends the gate at once.
check() {
  local out
  out="$("$exe" --workload "$1" --seed 0)" || {
    echo "rate gate: the benchmark failed on $1" >&2
    exit 1
  }
  awk -v w="$1" '
    NR == FNR { if ($1 == w) floor[$2] = $7; next }
    $1 == w && ($2 in floor) {
      seen[$2] = 1
      ok = $3 + 0 >= floor[$2] + 0
      printf "rate gate: %s %s %.2f %s, floor %.2f\n", w, $2, $3, ok ? "ok" : "under", floor[$2]
      if (!ok) bad = 1
    }
    END {
      for (m in floor) if (!(m in seen)) { printf "rate gate: %s %s not reported\n", w, m; bad = 1 }
      exit bad
    }' "$ledger" - <<<"$out"
}

failed=()
for w in $(awk '$1 !~ /^#/ && $1 != "env" && NF && !seen[$1]++ { print $1 }' "$ledger"); do
  if ! check "$w"; then
    echo "rate gate: $w under a floor; running it once more"
    check "$w" || failed+=("$w")
  fi
done

if [[ ${#failed[@]} -gt 0 ]]; then
  echo "rate gate: FAILED on ${failed[*]}" >&2
  exit 1
fi
echo "rate gate: ok"
