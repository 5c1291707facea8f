#!/usr/bin/env bash
# Runs the full experiment suite and refreshes every BENCH_*.json artifact
# at the workspace root (tables print to stdout as they complete).
#
# Usage:
#   scripts/bench.sh            # all experiments + micro benchmarks
#   scripts/bench.sh e1 micro   # a subset, by short name
#   SWEEP_THREADS=4 scripts/bench.sh e1   # pin the sweep thread count
set -euo pipefail
cd "$(dirname "$0")/.."

targets=(
    exp_e1_decision_vs_n
    exp_e2_obsolete_ballots
    exp_e3_dead_coordinators
    exp_e4_restart_recovery
    exp_e5_bconsensus
    exp_e6_epsilon_tradeoff
    exp_e7_stable_case
    exp_e8_clock_drift
    exp_e9_ablations
    exp_e10_bound_check
    exp_w1_throughput_vs_n
    exp_w2_load_vs_stability
    exp_w3_shard_scaling
    exp_w4_session_sharing
    exp_w5_rebalance
    micro_simulator
    trace_gen
    health_gen
)

# Subset selection: map "e1" → exp_e1_*, "micro" → micro_simulator.
if [ "$#" -gt 0 ]; then
    selected=()
    for want in "$@"; do
        for t in "${targets[@]}"; do
            case "$t" in
                "exp_${want}_"*|"$want"|"${want}_simulator"|"${want}_gen") selected+=("$t") ;;
            esac
        done
    done
    [ "${#selected[@]}" -gt 0 ] || { echo "no target matches: $*" >&2; exit 1; }
    targets=("${selected[@]}")
fi

for t in "${targets[@]}"; do
    echo "=== $t ==="
    if [ "$t" = micro_simulator ]; then
        CRITERION_OUT="$PWD/BENCH_micro.json" cargo bench -q -p esync-bench --bench "$t"
    else
        cargo bench -q -p esync-bench --bench "$t"
    fi
    if [ "$t" = health_gen ]; then
        echo "=== inspect ==="
        cargo run -q --release -p esync-check --bin inspect -- "${BENCH_OUT_DIR:-$PWD}/HEALTH_exp_h1.jsonl"
    fi
done

echo
echo "artifacts:"
ls -1 BENCH_*.json TRACE_*.jsonl HEALTH_*.jsonl 2>/dev/null || true
