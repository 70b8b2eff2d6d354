#!/usr/bin/env bash
# Capture the golden values of every workload for every input seed.
# Run from the repository root at the commit whose outputs are golden:
#     bash bench/capture.sh
set -euo pipefail
seeds=$(python3 -c 'import sys; sys.path.insert(0, "bench"); import run; print(run.GOLDEN_SEEDS)')
rm -f bench/golden.json
for workload in clean witness cli; do
    for ((seed = 0; seed < seeds; seed++)); do
        python3 bench/run.py --workload "$workload" --seed "$seed" --seconds 1 --capture
    done
done
