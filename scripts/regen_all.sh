#!/usr/bin/env bash
# Regenerate every table/figure of the paper into results/.
# Usage: scripts/regen_all.sh
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/registry.sh
echo "registry: $REGISTRY"
mkdir -p results
cargo build --release -p hermes-bench
for bin in table1 table2 table3 table4 table5 \
           fig3 fig4 fig5 fig7 fig11 fig12 fig13 fig14 fig15 figa5 \
           experiences ablation_quality trace_replay; do
    echo "=== $bin ==="
    cargo run --release -q -p hermes-bench --bin "$bin" > "results/$bin.txt" 2>&1
done
echo "done: $(ls results | wc -l) result files in results/"
