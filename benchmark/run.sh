#!/usr/bin/env bash
# The benchmark's one command. Builds the benchmark crate in release mode
# (offline: every dependency is a path dependency) and runs it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       the driver's contract: one workload, one JSON object as the last
#       line of standard output
#   benchmark/run.sh [--seed N] [--workload W] [--out FILE] [--quick]
#       every workload: 5 interleaved repetitions each, one traced pass,
#       the probes; prints every metric by name with its unit
#   benchmark/run.sh --repeat-check [--seed N] [--quick]
#       two full sets of runs of this commit, compared against the bounds
#   benchmark/run.sh compare A.json B.json
#       two result files, metric by metric; nonzero exit on a regression
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac

# Build output goes to standard error so that standard output stays the
# benchmark's own.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" 1>&2
bin="$target/release/benchmark"

has() { local want="$1"; shift; for a in "$@"; do [ "$a" = "$want" ] && return 0; done; return 1; }

if [ "${1:-}" = "compare" ] || [ "${1:-}" = "spec" ] || [ "${1:-}" = "calibrate" ]; then
    exec "$bin" "$@"
elif has --seconds "$@"; then
    exec "$bin" run "$@"
elif has --repeat-check "$@"; then
    rest=()
    for a in "$@"; do [ "$a" = "--repeat-check" ] || rest+=("$a"); done
    out="$here/results"
    mkdir -p "$out"
    "$bin" all "${rest[@]}" --out "$out/repeat_a.json"
    "$bin" all "${rest[@]}" --out "$out/repeat_b.json"
    exec "$bin" compare "$out/repeat_a.json" "$out/repeat_b.json"
else
    exec "$bin" all "$@"
fi
