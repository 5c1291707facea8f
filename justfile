# Common workflows. Run `just -l` for the list.

# Build everything (release) and run the full test suite.
check:
    cargo build --release --workspace
    cargo test -q --workspace

# Lint like CI does.
clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# Run the full experiment suite and refresh every BENCH_*.json artifact.
bench:
    scripts/bench.sh

# One experiment by short name (e.g. `just exp e1`, `just exp micro`).
exp name:
    scripts/bench.sh {{name}}

# The Criterion micro-benchmarks only, capturing BENCH_micro.json.
micro:
    scripts/bench.sh micro

# The replicated-log throughput workloads (closed-loop saturation W1,
# open-loop rate-vs-stability W2, shard scaling W3, session sharing W4,
# live rebalancing W5), refreshing BENCH_exp_w*.json.
workload:
    scripts/bench.sh w1 w2 w3 w4 w5

# The sharded log-group scaling experiment only (BENCH_exp_w3_*.json).
w3:
    scripts/bench.sh w3

# The group-session sharing experiment only (BENCH_exp_w4_*.json):
# idle-period message rate and re-anchor latency vs shard count.
w4:
    scripts/bench.sh w4

# The live-rebalancing experiment only (BENCH_exp_w5_*.json): static vs
# live range routing under hotspot and shifting key skew.
w5:
    scripts/bench.sh w5

# Regenerate the typed-trace artifacts (TRACE_exp_e1.jsonl for the
# per-decision bound, TRACE_exp_w3.jsonl for the phase decomposition).
trace:
    scripts/bench.sh trace

# Regenerate the health artifact (HEALTH_exp_h1.jsonl: metrics snapshots
# + watchdog verdicts from a stable metered run) and inspect the fresh file.
health:
    scripts/bench.sh health

# Replay the TRACE_*/HEALTH_* artifacts (default: the three committed
# ones): the paper's decision-time bound per decision (e1), the
# queue/quorum/learn split (w3), the cluster-status report (h1). Exits
# nonzero on a violated bound, a fired watchdog or an unreadable file.
inspect *files:
    cargo run -q --release -p esync-check --bin inspect -- {{files}}

# Regenerate-and-diff: run the named experiments (default: e7 w3 w4 w5
# trace health) into a scratch directory and compare with the committed
# BENCH_exp_*/TRACE_*/HEALTH_* artifacts; nonzero exit at the first
# differing field. What every "the stream did not change" claim runs.
identity *targets:
    scripts/identity.sh {{targets}}

# Non-test lines (everything before a file's first column-0
# `#[cfg(test)]`), per file and in total, under the given directories
# (default `crates/core/src`) — the number a simplicity PR quotes.
lines *dirs:
    scripts/lines.sh {{dirs}}

# Where a release binary spends its CPU time, on a box without `perf`:
# builds the SIGPROF sampler (scripts/profile/sampler.c), runs
# `binary args…` under it and prints the symbolized profile (top physical
# functions with libc leaves attributed to their callers, inlined frames,
# source lines). For lines, build the binary with
# `CARGO_PROFILE_RELEASE_DEBUG=line-tables-only` (same code, plus tables).
# E.g. `just profile benchmark/target/release/benchmark run --workload
# sim_recover_n33 --seed 7 --seconds 15 --trace 0`.
profile binary *args:
    mkdir -p target/profile
    gcc -O2 -shared -fPIC -o target/profile/sampler.so scripts/profile/sampler.c
    rm -f target/profile/samples.*
    PROFILE_OUT="$PWD/target/profile/samples" LD_PRELOAD="$PWD/target/profile/sampler.so" {{binary}} {{args}}
    python3 scripts/profile/symbolize.py target/profile/samples.*

# The performance benchmark (BENCHMARK.json): every workload, 5 interleaved
# repetitions + one traced pass + the probes; every metric by name with
# its unit and a per-layer ledger per workload (~2.5 min). For a host-time
# claim, compare two commits with `benchmark/run.sh compare A.json B.json`.
benchmark:
    bash benchmark/run.sh

# The same at 1/20 size with every output check on (< 20 s), plus the
# benchmark crate's own tests — what CI's benchmark-smoke job runs.
benchmark-quick:
    bash benchmark/run.sh --quick
    cargo test --manifest-path benchmark/Cargo.toml --release --offline

# Interleaved A/B of two benchmark binaries on one workload (15 s per
# run, untraced, order alternating by seed): one row per run, then per
# end-to-end metric both medians (q1–q3), the ratio, pairs won and
# whether a gain claim holds (≥ 9/10 pairs, median delta > parent IQR).
# E.g. `just ab /tmp/parent/release/benchmark benchmark/target/release/benchmark
# rt_log_s1_n3 1 2 3 4 5 6 7 8 9 10`.
ab parent change workload +seeds:
    scripts/ab.sh {{parent}} {{change}} {{workload}} {{seeds}}
