//! What the benchmark runs and what it reports: the six workloads, the
//! end-to-end metrics with their regression bounds, and the per-layer
//! metrics. `BENCHMARK.json` at the repository root states the same lists
//! for the driver; `tests/quick.rs` asserts the two agree.

/// How many sub-seeds one repetition covers. A repetition runs one unit
/// per sub-seed (each derived from `--seed`) and reports their mean, so a
/// run's numbers do not hang on one schedule: on a single seed
/// `host_us_per_op` of `sim_failover_open_s4` differs by 18% between seeds
/// and `commit_p99_ms` of `sim_group_s8` by 10% (README, "Noise").
pub const SUB_SEEDS: u64 = 16;
/// `--quick` covers fewer.
pub const QUICK_SUB_SEEDS: u64 = 2;

/// The `k`-th sub-seed of `seed`.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(k)
}

/// One workload: a fixed-size unit of work (never adaptive — a run repeats
/// whole units, it does not resize them), about 0.2 s of host time each.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// The unit size: simulated runs on `sim_recover_n33`, commands
    /// elsewhere.
    pub unit: u64,
    /// What the unit counts.
    pub unit_of: &'static str,
    /// How strongly the unit's host time follows the machine's clock and
    /// its shared-cache latency (`measure::Speed`): the exponents that
    /// `benchmark calibrate` found to leave the least run-to-run variation.
    /// The threaded workloads keep every hardware thread busy, so the clock
    /// probe reads one state around them and only the cache matters.
    pub speed_exponents: (f64, f64),
    /// Why the workload exists (also the `why` of `BENCHMARK.json`).
    pub why: &'static str,
}

/// The workloads, in report order. Names are normative: later issues cite
/// them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "sim_recover_n33",
        unit: 16,
        unit_of: "runs",
        speed_exponents: (0.8, 0.6),
        why: "The paper's claim: single-shot recovery from chaos at n=33. n^2 trivial-handler messages make world loop, event queue and network do nearly all the work, the log layers none.",
    },
    Workload {
        name: "sim_log_s1",
        unit: 12_000,
        unit_of: "commands",
        speed_exponents: (0.8, 0.6),
        why: "Steady-state single log (MultiPaxos, n=5, closed loop): multi-Paxos handlers and the collector dominate; the group seam is bypassed, so a core.group change must show no change here.",
    },
    Workload {
        name: "sim_group_s8",
        unit: 3_000,
        unit_of: "commands",
        speed_exponents: (0.6, 1.2),
        why: "The same drive through LogGroup(8): every action crosses the group dispatch/retag seam and per-shard accounting, about 4x the host time per commit of sim_log_s1. Seam, router, shard work show.",
    },
    Workload {
        name: "sim_failover_open_s4",
        unit: 3_000,
        unit_of: "commands",
        speed_exponents: (0.8, 0.6),
        why: "Open-loop Poisson stream while the anchored leader crashes and restarts: election, promise fold, re-forwarding and restart catch-up instead of the fast path; requests due with no leader count.",
    },
    Workload {
        name: "rt_log_s1_n3",
        unit: 15_000,
        unit_of: "commands",
        speed_exponents: (0.0, 0.8),
        why: "The threaded backend end to end (node loop, channel transport, commit fan-out, collector) with the cheapest protocol; the simulator layers do nothing.",
    },
    Workload {
        name: "rt_group_s4_n3",
        unit: 10_000,
        unit_of: "commands",
        speed_exponents: (0.0, 0.8),
        why: "Threaded runtime plus the group seam under real concurrency; pairs with rt_log_s1_n3 (seam in or out) and with sim_group_s8 (same seam, other backend).",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Whether a workload runs on the deterministic simulator (its sim-time
/// numbers then repeat exactly for one seed) or on the threaded runtime.
pub fn is_sim(name: &str) -> bool {
    name.starts_with("sim_")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees. Every workload
/// reports every one of them.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    /// Whether the value is simulated time on `sim_*` workloads, where it
    /// is a pure function of the seed and must repeat exactly.
    pub sim_time: bool,
    pub what: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "host_us_per_op",
        unit: "us",
        better: Better::Lower,
        bound: 0.20,
        sim_time: false,
        what: "host wall time of the measured phase per op (op = committed command; one completed simulated run on sim_recover_n33), at nominal machine speed. On rt_* it is 1e6 / wall commits per second, likewise scaled.",
    },
    EndToEnd {
        name: "commit_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
        sim_time: true,
        what: "median latency in the workload's own clock: submission (open loop: due time) to first commit, simulated ms on sim_* (exact for a seed), wall ms at nominal machine speed on rt_*; boot to decision on sim_recover_n33.",
    },
    EndToEnd {
        name: "commit_p99_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        sim_time: true,
        what: "99th percentile of the same latency, interpolated inside the histogram bucket.",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        sim_time: false,
        what: "VmHWM of the fresh child process that ran one unit.",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        sim_time: false,
        what: "process start to ready-to-measure: sim exec, World::new and warm-up to an anchored leader (plus the failover probe run), at nominal machine speed; rt everything outside the measured span (spawn, 60 ms warm-up sleep, apply tail, shutdown), unscaled.",
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A per-layer metric: one module's count, busy time or ratio, taken from
/// the traced pass or an isolated probe. No bound; a layer a workload does
/// not exercise reads 0.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Which end-to-end metric it should move, and where (README table).
    pub moves: &'static str,
}

const fn lower(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        moves,
    }
}

const fn higher(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        moves,
    }
}

const STEADY: &str = "host_us_per_op on sim_log_s1 / sim_group_s8 and rt_*";
const ELECTION: &str = "host_us_per_op on sim_failover_open_s4 only (promise build/fold, catch-up)";
const ARTIFACT: &str =
    "none of the six runs (predicted no move): guards the codec/artifact rewrites";
const RT_TPUT: &str = "host_us_per_op (wall commits/s) and commit_p99_ms on rt_*";

pub const PER_LAYER: &[PerLayer] = &[
    // --- simulator -------------------------------------------------------
    lower("sim.world.step_self_ns", "ns", "host_us_per_op on sim_*: most on sim_recover_n33, least on sim_group_s8"),
    lower("sim.world.events_per_op", "count", "host_us_per_op on sim_* (exact for a seed)"),
    higher("sim.world.events_per_host_s", "1/s", "the inverse view of host_us_per_op on sim_*"),
    lower("sim.world.new_ns", "ns", "host_us_per_op on sim_recover_n33; setup_s elsewhere"),
    lower("sim.world.reset_ns", "ns", "host_us_per_op on sim_recover_n33 (49 of 50 runs reuse the world)"),
    lower("sim.world.report_ns", "ns", "host_us_per_op on sim_recover_n33 and the sim log workloads"),
    lower("sim.world.submit_ns", "ns", "host_us_per_op on sim_log_s1 / sim_group_s8, a little"),
    lower("sim.event.push_pop_ns", "ns", "host_us_per_op on sim_recover_n33 (probe: depth 1089, delta horizon)"),
    lower("sim.network.msgs_per_op", "count", "host_us_per_op on all sim_* (exact)"),
    lower("sim.network.dropped_frac", "ratio", "wasted work on sim_recover_n33 (exact)"),
    // --- protocol, through Timed<P> --------------------------------------
    lower("core.proto.on_message_ns", "ns", STEADY),
    lower("core.proto.on_message_calls_per_op", "count", STEADY),
    lower("core.proto.on_timer_ns", "ns", STEADY),
    lower("core.proto.on_timer_calls_per_op", "count", STEADY),
    lower("core.proto.on_client_ns", "ns", STEADY),
    lower("core.proto.on_client_calls_per_op", "count", STEADY),
    lower("core.proto.on_restart_ns", "ns", "host_us_per_op on sim_failover_open_s4"),
    lower("core.proto.busy_share", "ratio", "the protocol's share of host_us_per_op (sim) or of node CPU (rt)"),
    lower("core.proto.on_message_ns.1a", "ns", ELECTION),
    lower("core.proto.on_message_ns.1b", "ns", ELECTION),
    lower("core.proto.on_message_ns.2a", "ns", STEADY),
    lower("core.proto.on_message_ns.2b", "ns", STEADY),
    lower("core.proto.on_message_ns.forward", "ns", STEADY),
    lower("core.proto.on_message_ns.decided", "ns", STEADY),
    lower("core.proto.on_message_ns.reroute", "ns", "nothing today (no workload rebalances): predicted 0"),
    lower("core.proto.on_message_calls_per_op.1a", "count", ELECTION),
    lower("core.proto.on_message_calls_per_op.1b", "count", ELECTION),
    lower("core.proto.on_message_calls_per_op.2a", "count", STEADY),
    lower("core.proto.on_message_calls_per_op.2b", "count", STEADY),
    lower("core.proto.on_message_calls_per_op.forward", "count", STEADY),
    lower("core.proto.on_message_calls_per_op.decided", "count", STEADY),
    lower("core.proto.on_message_calls_per_op.reroute", "count", "nothing today: predicted 0"),
    lower("core.proto.anchors", "count", "commit_p99_ms on sim_failover_open_s4 (one per election won)"),
    lower("core.proto.dup_commits_per_kop", "count", "wasted work on sim_failover_open_s4"),
    higher("core.proto.sim_commits_per_s", "1/s", "simulated-time throughput on the sim log workloads (exact)"),
    lower("core.proto.unavailable_ms", "ms", "commit_p99_ms on sim_failover_open_s4: crash to first commit of a command due after it (exact)"),
    lower("core.proto.decide_after_ts_p50_delta", "delta", "commit_p50_ms on sim_recover_n33 (exact)"),
    lower("core.proto.decide_after_ts_worst_delta", "delta", "commit_p99_ms on sim_recover_n33; the run fails above the paper's bound (exact)"),
    lower("core.group.seam_ns_per_call", "ns", "host_us_per_op on sim_group_s8 and rt_group_s4_n3; no move on sim_log_s1 / rt_log_s1_n3"),
    lower("core.group.shard_imbalance", "ratio", "host_us_per_op on sim_group_s8 / rt_group_s4_n3 (exact on sim)"),
    lower("core.outbox.push_drain_ns", "ns", "every host-time metric, a little (probe, gates off)"),
    // --- workload drivers -------------------------------------------------
    lower("workload.gen.next_command_ns", "ns", "host_us_per_op on sim_log_s1, a little"),
    lower("workload.collect.on_submit_ns", "ns", "host_us_per_op on sim_log_s1 (largest share there) and rt_*"),
    lower("workload.collect.on_commit_ns", "ns", "host_us_per_op on sim_log_s1 (largest share there) and rt_*"),
    lower("workload.collect.summary_ns", "ns", "host_us_per_op, once per run"),
    lower("workload.collect.commit_records_per_op", "count", "host_us_per_op on the log workloads (exact on sim)"),
    lower("workload.sim_driver.self_ns_per_op", "ns", "host_us_per_op on the sim log workloads: loop, owner map, agreement check"),
    // --- threaded runtime --------------------------------------------------
    lower("runtime.cluster.spawn_ms", "ms", "setup_s on rt_*"),
    lower("runtime.cluster.first_leader_ms", "ms", "setup_s on rt_*: spawn to first leader_hint()"),
    lower("runtime.cluster.shutdown_ms", "ms", "setup_s on rt_*"),
    lower("runtime.cluster.submit_ns", "ns", RT_TPUT),
    lower("runtime.cluster.commit_recv_wait_share", "ratio", "toward 0 the driver, not the cluster, is the bottleneck on rt_*"),
    lower("runtime.cluster.commit_msgs_per_op", "count", RT_TPUT),
    higher("runtime.cluster.commits_per_s", "1/s", "the inverse view of host_us_per_op on rt_*"),
    lower("runtime.node.cpu_us_per_op", "us", RT_TPUT),
    lower("runtime.node.handler_us_per_op", "us", RT_TPUT),
    lower("runtime.node.nonhandler_cpu_us_per_op", "us", "node loop, transport and channel wake-ups on rt_*"),
    lower("runtime.node.ctx_switches_per_op", "count", "commit_p99_ms on rt_*"),
    // --- observability and artifacts (isolated probes) ----------------------
    lower("trace.on_overhead_pct", "%", "host_us_per_op on sim_log_s1 only when tracing is on"),
    lower("metrics.on_overhead_pct", "%", "host_us_per_op on sim_log_s1 only when metering is on"),
    lower("trace.jsonl.write_ns_per_record", "ns", ARTIFACT),
    lower("trace.jsonl.parse_ns_per_record", "ns", ARTIFACT),
    lower("trace.analyze.decompose_ns_per_record", "ns", ARTIFACT),
    lower("metrics.jsonl.write_ns_per_snapshot", "ns", ARTIFACT),
    lower("metrics.jsonl.parse_ns_per_snapshot", "ns", ARTIFACT),
    lower("bench.artifact.serialize_ns_per_record", "ns", ARTIFACT),
    lower("bench.artifact.bytes_per_record", "bytes", ARTIFACT),
    lower("bench.sweep.overhead_ns_per_run", "ns", "host_us_per_op on sim_recover_n33, a little"),
    // --- validity of the rows above -----------------------------------------
    lower("benchmark.traced_host_us_per_op", "us", "- (the traced pass's own end-to-end time)"),
    lower("benchmark.untraced_host_us_per_op", "us", "- (untraced repetitions interleaved with the traced ones)"),
    lower("benchmark.trace_overhead_pct", "%", "- (traced against untraced, same interleaving)"),
    lower("benchmark.attributed_us_per_op", "us", "- (sum of the corrected ledger rows)"),
    lower("benchmark.unattributed_share", "ratio", "- (untraced time the rows do not explain; the rows are trusted within 0.10)"),
    lower("benchmark.clock_read_ns", "ns", "- (the calibration the corrections use)"),
    lower("benchmark.cpu_s", "s", "- (process CPU of one untraced unit's measured phase: tells steal from a real change)"),
    lower("benchmark.wall_s", "s", "- (raw wall time of the same phase, before speed scaling)"),
    lower("benchmark.clock_probe_us", "us", "- (the clock probe around the traced units: 145 undisturbed, 186 disturbed on the defining box)"),
    lower("benchmark.memory_probe_us", "us", "- (the shared-cache probe around the traced units: 400 to 700 on the defining box)"),
    lower("benchmark.speed_scale", "ratio", "- (what the traced units' host times were multiplied by)"),
    lower("benchmark.reps", "count", "- (traced repetitions behind the medians)"),
];

/// The `BENCHMARK.json` this registry describes, one key per line.
pub fn benchmark_json(run_seconds: u64) -> String {
    use crate::json::Json;
    let named = |name: &str, unit: &str, better: Better| {
        vec![
            ("name", Json::Str(name.into())),
            ("unit", Json::Str(unit.into())),
            ("better", Json::Str(better.as_str().into())),
        ]
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            Json::obj([
                ("name", Json::Str(w.name.into())),
                ("why", Json::Str(w.why.into())),
            ])
            .render()
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            let mut o = named(m.name, m.unit, m.better);
            o.push(("bound", Json::Num(m.bound)));
            Json::obj(o).render()
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| Json::obj(named(m.name, m.unit, m.better)).render())
        .collect();
    let list = |items: &[String]| format!("[\n    {}\n  ]", items.join(",\n    "));
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {run_seconds},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        list(&workloads),
        list(&e2e),
        list(&layers)
    )
}

/// The registry as the three tables of `README.md`.
pub fn markdown() -> String {
    let mut out = String::from(
        "| workload | unit | speed exponents (clock, memory) | why |\n|---|---|---|---|\n",
    );
    for w in WORKLOADS {
        out += &format!(
            "| `{}` | {} {} | {:?} | {} |\n",
            w.name, w.unit, w.unit_of, w.speed_exponents, w.why
        );
    }
    out += "\n| end-to-end metric | unit | better | bound | definition |\n|---|---|---|---|---|\n";
    for m in END_TO_END {
        let exact = if m.sim_time {
            "; exact on `sim_*` for one seed"
        } else {
            ""
        };
        out += &format!(
            "| `{}` | {} | {} | {:.0}%{} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            exact,
            m.what
        );
    }
    out += "\n| per-layer metric | unit | should move |\n|---|---|---|\n";
    for m in PER_LAYER {
        out += &format!("| `{}` | {} | {} |\n", m.name, m.unit, m.moves);
    }
    out
}
