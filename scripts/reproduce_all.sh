#!/usr/bin/env bash
# Regenerates every table/figure of the paper plus the ablations, writing
# console output and CSVs under results/. Pass --full as $1 to run the
# paper-scale sweeps (hours on a laptop; the defaults take minutes).
set -euo pipefail
cd "$(dirname "$0")/.."
FULL="${1:-}"
mkdir -p results
cmake -B build -G Ninja >/dev/null
cmake --build build >/dev/null

# Gate the reproduction on the rule linter: every coefficient table the runs
# below depend on is re-verified symbolically (Brent equations, sigma/phi
# metadata, duplicate-factor scan) before any numbers are produced.
echo "== rule_lint =="
./build/tools/rule_lint | tee results/rule_lint.txt

run() {
  local name="$1"; shift
  echo "== $name =="
  "./build/bench/$name" "$@" --csv="results/$name.csv" | tee "results/$name.txt"
}

run table1_properties
run fig1_error $FULL
run fig3_gemm_perf $FULL
run fig5_mlp_accuracy $FULL
run fig6_mlp_training $FULL
run fig7_vgg_fc $FULL
run ablation_strategy
run ablation_recursion
run ablation_lambda
run ablation_exact_vs_apa
run ablation_cost_model
run ablation_writeonce
./build/bench/micro_core --benchmark_out=results/micro_core.json \
  --benchmark_out_format=json | tee results/micro_core.txt
./build/bench/micro_blas --benchmark_out=results/micro_blas.json \
  --benchmark_out_format=json | tee results/micro_blas.txt
echo "done; outputs in results/"
