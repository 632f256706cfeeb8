#!/usr/bin/env bash
# Runs every workload once untraced and once traced and prints each result
# line (end-to-end metrics, then per-layer metrics with the tracing overhead)
# after its workload's name. Run it from the repository root:
#
#   bash perfbench/all.sh [seed] [seconds]
set -euo pipefail
seed=${1:-0}
seconds=${2:-15}
for w in raft-sym-serial zab-nosym-parallel raft-outofcore-resume raft-cluster-hunt; do
	for trace in 0 1; do
		echo "== $w trace=$trace"
		bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" 2>/dev/null | tail -n 2
	done
done
