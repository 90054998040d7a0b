#!/usr/bin/env bash
# Prints the layer table: every per-layer metric of the traced run with its
# unit and base, grouped by workload, including trace.overhead_frac and
# layers.residual_frac. Run from the repository root:
#
#	bash perfbench/layers.sh [seed] [seconds]
set -euo pipefail
seed=${1:-1}
seconds=${2:-30}
for w in search spmd-ooc serve; do
	bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 --table | sed '$d'
done
