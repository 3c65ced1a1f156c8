#!/usr/bin/env bash
# End-to-end benchmark smoke: perfbench's failure-path self-test, then a 2 s traced run of
# every workload. Fails unless every result line reads "correct": true — no failed attempt,
# one fingerprint across the untraced, traced and shard-pool runs, and a passing per-layer
# self-check. Then every run of a short seed-1 e2e_bench pass must match the fingerprint,
# built and delivered counts pinned in scripts/perfbench_pins.txt, so a change that moves
# simulated behaviour fails here even when all its runs agree with each other. Timing is
# not judged here; BENCHMARK.json's bounds judge it.
#
# Usage: scripts/perfbench_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."

python3 perfbench/run.py --self-test
for workload in paper_b mediamix_overload fabric_campus purge_recovery; do
  result=$(python3 perfbench/run.py --workload "$workload" --seconds 2 --trace 1 | tail -n 1)
  if ! python3 -c 'import json, sys; sys.exit(json.loads(sys.argv[1]).get("correct") is not True)' \
      "$result"; then
    echo "perfbench $workload: not correct: $result" >&2
    exit 1
  fi
  echo "perfbench $workload: correct"
done

# The per-run lines against the pinned seed-1 results (run.py above built e2e_bench).
while read -r workload fingerprint built delivered; do
  case "$workload" in ''|'#'*) continue ;; esac
  lines=$(.bench_build/perfbench/e2e_bench --workload="$workload" --seed=1 --seconds=0.1 \
      --mode=timed)
  if ! python3 -c '
import json, sys
want = {"fingerprint": sys.argv[1], "built": int(sys.argv[2]), "delivered": int(sys.argv[3])}
runs = [json.loads(line) for line in sys.argv[4].splitlines() if line.startswith("{")]
runs = [r for r in runs if "fingerprint" in r]
bad = [r for r in runs if any(r.get(k) != v for k, v in want.items())]
for r in bad:
    print("  pinned", want, "got", {k: r.get(k) for k in want}, file=sys.stderr)
sys.exit(1 if bad or not runs else 0)' "$fingerprint" "$built" "$delivered" "$lines"; then
    echo "perfbench $workload: seed-1 run differs from scripts/perfbench_pins.txt" >&2
    exit 1
  fi
  echo "perfbench $workload: matches the pinned seed-1 run"
done < scripts/perfbench_pins.txt
