#!/usr/bin/env bash
# End-to-end benchmark smoke: perfbench's failure-path self-test, then a 2 s traced run of
# every workload. Fails unless every result line reads "correct": true — no failed attempt,
# one fingerprint across the untraced, traced and shard-pool runs, and a passing per-layer
# self-check. Timing is not judged here; BENCHMARK.json's bounds judge it.
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
