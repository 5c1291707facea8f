#!/usr/bin/env bash
# Interleaved A/B of two builds of the benchmark on one workload — the
# protocol every host-time claim in ROADMAP.md uses.
#
# Usage:
#   scripts/ab.sh PARENT_BIN CHANGE_BIN WORKLOAD SEED...
#
# For each seed it runs `<bin> run --workload WORKLOAD --seed s --seconds 15
# --trace 0` once with each binary, the parent first on odd seeds and the
# change first on even ones, and prints one row per run. Then, for each
# end-to-end metric of BENCHMARK.json: both sides' median (q1–q3), the
# change/parent ratio, the pairs the change won, whether a gain claim
# holds (≥ 9/10 of the pairs won and the median delta larger than the
# parent's q1–q3 spread), and a no-regression verdict against the
# metric's `bound` from BENCHMARK.json:
#
#   worse       the change median is past the parent median by more than
#               the bound (× (1 + bound) for a lower-is-better metric);
#   unresolved  otherwise, if either side's q3 − q1 exceeds bound × its
#               median — the runs spread too widely to tell — unless
#               every change run beats every parent run;
#   no worse    otherwise.
#
# Last, each side's failed/attempted share of operations. Quartiles are
# Python's exclusive method, as in `benchmark/src/measure.rs`.
#
# The noise floor: an A/A run (the same binary passed as both PARENT_BIN
# and CHANGE_BIN) measures how far two sides differ by chance on this
# machine. Run one before reading a small delta, and on any workload whose
# rows have drifted between sessions (the `rt_*` rows have).
#
# Build each side once, e.g. from a clone of the parent commit:
#   CARGO_TARGET_DIR=/tmp/parent cargo build --release --offline \
#       --manifest-path benchmark/Cargo.toml
# Run nothing else meanwhile.
set -euo pipefail

if [ "$#" -lt 4 ]; then
    echo "usage: $0 PARENT_BIN CHANGE_BIN WORKLOAD SEED..." >&2
    exit 2
fi
parent="$1" change="$2" workload="$3"
shift 3
spec="$(dirname "$0")/../BENCHMARK.json"
rows="$(mktemp)"
trap 'rm -f "$rows"' EXIT

one() {
    local side="$1" bin="$2" seed="$3" line
    line="$("$bin" run --workload "$workload" --seed "$seed" --seconds 15 --trace 0 | tail -n 1)"
    printf '%s\t%s\t%s\n' "$seed" "$side" "$line" >>"$rows"
    python3 - "$seed" "$side" "$line" <<'EOF'
import json, sys
seed, side, r = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
m = {k: v["value"] for k, v in r["metrics"].items()}
print(f"{seed:>6} {side:<6} {m['host_us_per_op']:>14.3f} {m['commit_p50_ms']:>13.4f}"
      f" {m['commit_p99_ms']:>13.4f} {m['peak_rss_mb']:>11.2f} {m['setup_s']:>8.3f}"
      f" {r['failed']:>7}/{r['attempted']}")
EOF
}

printf '%6s %-6s %14s %13s %13s %11s %8s %s\n' seed side host_us_per_op \
    commit_p50_ms commit_p99_ms peak_rss_mb setup_s failed
for seed in "$@"; do
    if [ $((seed % 2)) -eq 1 ]; then
        one parent "$parent" "$seed"
        one change "$change" "$seed"
    else
        one change "$change" "$seed"
        one parent "$parent" "$seed"
    fi
done

python3 - "$rows" "$spec" <<'EOF'
import json, statistics, sys

runs = {}
for line in open(sys.argv[1]):
    seed, side, rec = line.rstrip("\n").split("\t", 2)
    runs.setdefault(seed, {})[side] = json.loads(rec)
seeds = [s for s in runs if len(runs[s]) == 2]
metrics = json.load(open(sys.argv[2]))["end_to_end"]

def quartiles(v):
    if len(v) == 1:
        return v[0], v[0], v[0]
    return tuple(statistics.quantiles(v, n=4))

def verdict(p, c, pq, cq, bound, lower):
    # Orient every comparison so that smaller is better.
    sign = 1 if lower else -1
    if sign * (cq[1] - pq[1]) > bound * abs(pq[1]):
        return "worse"
    wide = any(q[2] - q[0] > bound * abs(q[1]) for q in (pq, cq))
    dominates = max(sign * x for x in c) < min(sign * x for x in p)
    return "unresolved" if wide and not dominates else "no worse"

print()
print(f"{'metric':<15} {'parent median (q1–q3)':<28} {'change median (q1–q3)':<28}"
      f" {'ratio':>7} {'won':>6}  {'claim (>= 9/10 won, delta > parent IQR)':<40}"
      f" verdict (bound)")
for m in metrics:
    name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
    p = [runs[s]["parent"]["metrics"][name]["value"] for s in seeds]
    c = [runs[s]["change"]["metrics"][name]["value"] for s in seeds]
    pq, cq = quartiles(p), quartiles(c)
    won = sum((ci < pi) if lower else (ci > pi) for pi, ci in zip(p, c))
    gain = pq[1] - cq[1] if lower else cq[1] - pq[1]
    holds = won * 10 >= 9 * len(seeds) and gain > pq[2] - pq[0]
    fmt = lambda q: f"{q[1]:.4g} ({q[0]:.4g}–{q[2]:.4g})"
    ratio = cq[1] / pq[1] if pq[1] else float("nan")
    print(f"{name:<15} {fmt(pq):<28} {fmt(cq):<28} x{ratio:<6.3f} {won:>2}/{len(seeds):<3}"
          f"  {'holds' if holds else 'does not hold':<40}"
          f" {verdict(p, c, pq, cq, bound, lower)} ({bound:g})")
for side in ("parent", "change"):
    failed = sum(runs[s][side]["failed"] for s in seeds)
    attempted = sum(runs[s][side]["attempted"] for s in seeds)
    share = failed / attempted if attempted else 0.0
    print(f"failed {side}: {failed}/{attempted} ({share:.3%})")
EOF
