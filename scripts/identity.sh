#!/usr/bin/env bash
# Regenerate-and-diff: runs the named scripts/bench.sh targets into a
# scratch directory and compares what they wrote with the committed
# artifacts at the workspace root — BENCH_exp_*.json value-wise (the three
# wall-clock fields wall_secs / runs_per_sec / threads are stripped),
# TRACE_*.jsonl and HEALTH_*.jsonl byte-wise. Exits nonzero at the first
# artifact that differs, printing its first differing field; the committed
# files are never touched. A refactor that claims "same messages, same
# order, same simulated history" passes this over every target.
#
# Usage:
#   scripts/identity.sh                  # e7 w3 w4 w5 trace health (~1 min)
#   scripts/identity.sh e1 w4 trace      # a subset, by bench.sh short name
#   scripts/identity.sh e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 w1 w2 w3 w4 w5 trace health
# (`micro` is wall-clock only and writes outside BENCH_OUT_DIR: not a target.)
set -euo pipefail
cd "$(dirname "$0")/.."

[ "$#" -gt 0 ] || set -- e7 w3 w4 w5 trace health
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

BENCH_OUT_DIR="$out" scripts/bench.sh "$@" >"$out/bench.log" 2>&1 || {
    cat "$out/bench.log" >&2
    echo "identity: scripts/bench.sh $* failed" >&2
    exit 1
}
rm "$out/bench.log"

strip_wall_clock() {
    sed -E '/^[[:space:]]*"(wall_secs|runs_per_sec|threads)":/d' "$1"
}

checked=0
for fresh in "$out"/*; do
    name=$(basename "$fresh")
    if [ ! -f "$name" ]; then
        echo "identity: $name is regenerated but not committed" >&2
        exit 1
    fi
    case "$name" in
        *.jsonl)
            if ! cmp -s "$name" "$fresh"; then
                echo "identity: $name differs (committed vs regenerated), first differing record:" >&2
                diff "$name" "$fresh" | head -n 4 >&2 || true
                exit 1
            fi
            echo "identical (bytes)   $name"
            ;;
        *)
            if ! diff <(strip_wall_clock "$name") <(strip_wall_clock "$fresh") >"$out/.diff"; then
                echo "identity: $name differs (committed vs regenerated), first differing field:" >&2
                head -n 4 "$out/.diff" >&2
                exit 1
            fi
            echo "identical (values)  $name"
            ;;
    esac
    checked=$((checked + 1))
done
[ "$checked" -gt 0 ] || { echo "identity: $* wrote no artifact" >&2; exit 1; }
echo "identity: $checked artifact(s) match the committed ones"
