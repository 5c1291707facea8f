//! The run protocol. A *unit* is one fixed-size piece of a workload on one
//! sub-seed, run in a fresh child process (this binary re-executing itself
//! as `unit`). A *repetition* is one unit per sub-seed; a metric's value in
//! a repetition is the mean over its units, and the reported value is the
//! median over the repetitions. Simulated outcomes must be identical
//! wherever a sub-seed is run again. The last line of standard output of a
//! contract run is one JSON object.

use crate::json::{self, Json};
use crate::measure::quartiles;
use crate::spec::{self, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use crate::units::UnitOut;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant, SystemTime};

/// What is the same for every unit of an invocation.
#[derive(Debug, Clone)]
pub struct Common {
    pub seed: u64,
    /// Divides every unit size; 1 normally, 20 under `--quick`.
    pub shrink: u64,
    /// Units per repetition.
    pub sub_seeds: u64,
}

/// One unit, as the runner sees it.
#[derive(Debug, Clone)]
struct Unit {
    attempted: u64,
    committed: u64,
    failed_checks: Vec<String>,
    fingerprint: Option<u64>,
    values: BTreeMap<String, f64>,
}

/// One unit per sub-seed, in sub-seed order.
type Repetition = Vec<Unit>;

/// The line a `unit` child prints.
pub fn unit_line(out: &UnitOut) -> String {
    Json::obj([
        ("attempted", Json::Num(out.attempted as f64)),
        ("committed", Json::Num(out.committed as f64)),
        (
            "failed_checks",
            Json::Arr(out.failed_checks.iter().cloned().map(Json::Str).collect()),
        ),
        (
            "fingerprint",
            out.fingerprint.map_or(Json::Null, |f| Json::Num(f as f64)),
        ),
        (
            "values",
            Json::Obj(
                out.values
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect(),
            ),
        ),
    ])
    .render()
}

fn parse_unit(stdout: &str) -> Result<Unit, String> {
    let line = stdout.lines().last().ok_or("the unit printed nothing")?;
    let v = json::parse(line)?;
    let num = |key: &str| {
        v.get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("unit line lacks `{key}`"))
    };
    Ok(Unit {
        attempted: num("attempted")? as u64,
        committed: num("committed")? as u64,
        failed_checks: v
            .get("failed_checks")
            .and_then(Json::as_arr)
            .ok_or("unit line lacks `failed_checks`")?
            .iter()
            .filter_map(|c| c.as_str().map(str::to_string))
            .collect(),
        fingerprint: v
            .get("fingerprint")
            .and_then(Json::as_f64)
            .map(|f| f as u64),
        values: v
            .get("values")
            .and_then(Json::as_obj)
            .ok_or("unit line lacks `values`")?
            .iter()
            .filter_map(|(k, x)| Some((k.clone(), x.as_f64()?)))
            .collect(),
    })
}

/// Runs sub-seed `k`'s unit in a fresh process and waits for it. A child
/// that dies or prints garbage is a failed unit, not a runner crash.
fn unit(c: &Common, w: &Workload, k: u64, traced: bool) -> Unit {
    let failed = |why: String| Unit {
        attempted: w.unit / c.shrink,
        committed: 0,
        failed_checks: vec![why],
        fingerprint: None,
        values: BTreeMap::new(),
    };
    let exe: PathBuf = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return failed(format!("cannot find this executable: {e}")),
    };
    let spawned_at = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let output = Command::new(exe)
        .args(["unit", "--workload", w.name])
        .args(["--seed", &spec::sub_seed(c.seed, k).to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--shrink", &c.shrink.to_string()])
        .args(["--spawned-at", &spawned_at.to_string()])
        .output();
    match output {
        Err(e) => failed(format!("cannot start a unit: {e}")),
        Ok(o) if !o.status.success() => failed(format!(
            "unit exited with {}: {}",
            o.status,
            String::from_utf8_lossy(&o.stderr)
                .lines()
                .last()
                .unwrap_or("")
        )),
        Ok(o) => parse_unit(&String::from_utf8_lossy(&o.stdout)).unwrap_or_else(failed),
    }
}

fn repetition(c: &Common, w: &Workload, traced: bool) -> Repetition {
    (0..c.sub_seeds).map(|k| unit(c, w, k, traced)).collect()
}

/// A traced and an untraced repetition with their units alternating, so
/// that each pair sees the machine in the same state and the overhead
/// compares like with like.
fn paired_repetition(c: &Common, w: &Workload) -> (Repetition, Repetition) {
    (0..c.sub_seeds)
        .map(|k| (unit(c, w, k, true), unit(c, w, k, false)))
        .unzip()
}

/// One metric over the repetitions of a run.
#[derive(Debug, Clone, Copy)]
pub struct Stat {
    /// The reported value: the median over the repetitions.
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub reps: usize,
}

/// The metric's value in each repetition (the mean over its units), then
/// median and quartiles over those.
fn stat(reps: &[Repetition], name: &str) -> Option<Stat> {
    let per_rep: Vec<f64> = reps
        .iter()
        .filter_map(|rep| {
            let v: Vec<f64> = rep
                .iter()
                .filter_map(|u| u.values.get(name).copied())
                .collect();
            (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
        })
        .collect();
    if per_rep.is_empty() {
        return None;
    }
    let (q1, value, q3) = quartiles(&per_rep);
    Some(Stat {
        value,
        q1,
        q3,
        reps: per_rep.len(),
    })
}

/// Everything measured for one workload.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    pub name: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub failed_checks: Vec<String>,
    /// From the untraced repetitions.
    pub end_to_end: BTreeMap<&'static str, Stat>,
    /// From the traced repetitions and the probes; empty without them.
    pub per_layer: BTreeMap<&'static str, f64>,
    /// The traced repetitions' ledger rows, µs per op.
    pub ledger: BTreeMap<String, f64>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failed_checks.is_empty()
    }
}

fn aggregate(
    w: &'static Workload,
    untraced: &[Repetition],
    traced: &[Repetition],
    probes: &BTreeMap<String, f64>,
) -> WorkloadResult {
    let units = || untraced.iter().chain(traced).flatten();
    let mut failed_checks: Vec<String> = units()
        .flat_map(|u| u.failed_checks.iter().cloned())
        .collect();
    // One sub-seed, one simulated outcome: across fresh processes, and with
    // the wrapper and the replayed drive in place of the program's own.
    let sub_seeds = untraced
        .iter()
        .chain(traced)
        .map(Vec::len)
        .max()
        .unwrap_or(0);
    for k in 0..sub_seeds {
        let mut prints = untraced
            .iter()
            .chain(traced)
            .filter_map(|rep| rep.get(k)?.fingerprint);
        if let Some(first) = prints.next() {
            if prints.any(|p| p != first) {
                failed_checks.push(format!(
                    "simulated outcome of sub-seed {k} differs between units"
                ));
            }
        }
    }
    failed_checks.sort();
    failed_checks.dedup();
    let attempted = units().map(|u| u.attempted).sum();
    // A unit with a failed check counts as failed whole.
    let failed = units()
        .map(|u| {
            if u.failed_checks.is_empty() {
                u.attempted.saturating_sub(u.committed)
            } else {
                u.attempted
            }
        })
        .sum();

    let end_to_end = END_TO_END
        .iter()
        .filter_map(|m| Some((m.name, stat(untraced, m.name)?)))
        .collect();
    let mut per_layer = BTreeMap::new();
    let mut ledger = BTreeMap::new();
    if !traced.is_empty() {
        let value = |reps: &[Repetition], key: &str| stat(reps, key).map_or(0.0, |s| s.value);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let untraced_us = value(untraced, "host_us_per_op");
        let traced_us = value(traced, "benchmark.traced_host_us_per_op");
        let attributed = stat(traced, "benchmark.attributed_us_per_op").map(|s| s.value);
        for m in PER_LAYER {
            let v = match m.name {
                "benchmark.untraced_host_us_per_op" => untraced_us,
                "benchmark.trace_overhead_pct" => (ratio(traced_us, untraced_us) - 1.0) * 100.0,
                "benchmark.unattributed_share" => {
                    attributed.map_or(0.0, |a| ratio(untraced_us - a, untraced_us))
                }
                "benchmark.cpu_s" | "benchmark.wall_s" => value(untraced, m.name),
                "benchmark.reps" => traced.len() as f64,
                // A layer this workload does not exercise reads 0.
                name => stat(traced, name)
                    .map(|s| s.value)
                    .or_else(|| probes.get(name).copied())
                    .unwrap_or(0.0),
            };
            per_layer.insert(m.name, v);
        }
        let rows: std::collections::BTreeSet<&String> = traced
            .iter()
            .flatten()
            .flat_map(|u| u.values.keys())
            .filter(|k| k.starts_with("ledger."))
            .collect();
        for row in rows {
            ledger.insert(row["ledger.".len()..].to_string(), value(traced, row));
        }
        if let Some(a) = attributed {
            ledger.insert("unattributed".into(), untraced_us - a);
        }
    }
    WorkloadResult {
        name: w.name,
        attempted,
        failed,
        failed_checks,
        end_to_end,
        per_layer,
        ledger,
    }
}

fn print_tables(r: &WorkloadResult) {
    println!(
        "## {}  ({} attempted, {} failed)",
        r.name, r.attempted, r.failed
    );
    for c in &r.failed_checks {
        println!("   FAILED CHECK: {c}");
    }
    for m in END_TO_END {
        if let Some(s) = r.end_to_end.get(m.name) {
            println!(
                "  {:<44} {:>16.6} {:<6} [median of {} repetitions, q1 {:.6}  q3 {:.6}]",
                m.name, s.value, m.unit, s.reps, s.q1, s.q3
            );
        }
    }
    for m in PER_LAYER {
        if let Some(v) = r.per_layer.get(m.name) {
            println!("  {:<44} {:>16.6} {}", m.name, v, m.unit);
        }
    }
    if !r.ledger.is_empty() {
        let total = r
            .per_layer
            .get("benchmark.untraced_host_us_per_op")
            .copied()
            .unwrap_or(0.0);
        println!("  ledger (us per op, share of the untraced host_us_per_op = {total:.3}):");
        for (row, us) in &r.ledger {
            println!(
                "    {:<42} {:>14.4} {:>7.1}%",
                row,
                us,
                if total > 0.0 { us / total * 100.0 } else { 0.0 }
            );
        }
    }
}

/// The driver's contract: one workload, measured for `seconds`, one JSON
/// object last. Returns the process exit code.
pub fn run_contract(c: &Common, w: &'static Workload, seconds: u64, traced: bool) -> i32 {
    // Two, so that every sub-seed's simulated outcome is checked against
    // a second process.
    const MIN_REPS: u32 = 2;
    let window = Duration::from_secs(seconds);
    let start = Instant::now();
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let mut reps = 0;
    // Whole repetitions only; stop where the total lands nearest `seconds`.
    while reps < MIN_REPS || start.elapsed() + start.elapsed() / reps / 2 < window {
        if traced {
            let (t, u) = paired_repetition(c, w);
            spanned.push(t);
            plain.push(u);
        } else {
            plain.push(repetition(c, w, false));
        }
        reps += 1;
    }
    let probes = if traced {
        crate::probes::run(c.seed, c.shrink)
    } else {
        BTreeMap::new()
    };
    let r = aggregate(w, &plain, &spanned, &probes);
    print_tables(&r);
    let metrics: BTreeMap<String, Json> = if traced {
        PER_LAYER
            .iter()
            .map(|m| {
                metric_entry(
                    m.name,
                    r.per_layer.get(m.name).copied().unwrap_or(0.0),
                    m.unit,
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                metric_entry(
                    m.name,
                    r.end_to_end.get(m.name).map_or(0.0, |s| s.value),
                    m.unit,
                )
            })
            .collect()
    };
    let line = Json::obj([
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::Num(r.attempted.max(1) as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.render());
    0
}

fn metric_entry(name: &str, value: f64, unit: &str) -> (String, Json) {
    (
        name.to_string(),
        Json::obj([
            ("value", Json::Num(value)),
            ("unit", Json::Str(unit.into())),
        ]),
    )
}

/// The full invocation: `reps` untraced repetitions per workload,
/// interleaved round-robin across workloads, then one traced repetition
/// each and the probes. Prints every metric by name and, with `out`,
/// writes the result file `compare` reads. Returns the process exit code.
pub fn run_all(c: &Common, only: Option<&'static Workload>, reps: usize, out: Option<&str>) -> i32 {
    let workloads: Vec<&'static Workload> = WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|o| o.name == w.name))
        .collect();
    let mut plain: Vec<Vec<Repetition>> = vec![Vec::new(); workloads.len()];
    for round in 0..reps {
        for (i, w) in workloads.iter().enumerate() {
            eprintln!("repetition {}/{reps}: {}", round + 1, w.name);
            plain[i].push(repetition(c, w, false));
        }
    }
    let spanned: Vec<Vec<Repetition>> = workloads
        .iter()
        .map(|w| {
            eprintln!("traced pass: {}", w.name);
            vec![repetition(c, w, true)]
        })
        .collect();
    eprintln!("probes");
    let probes = crate::probes::run(c.seed, c.shrink);
    let results: Vec<WorkloadResult> = workloads
        .iter()
        .enumerate()
        .map(|(i, w)| aggregate(w, &plain[i], &spanned[i], &probes))
        .collect();
    println!(
        "# benchmark: seed {}, {} sub-seeds, unit sizes / {}, {} repetitions per workload, {} hardware threads",
        c.seed,
        c.sub_seeds,
        c.shrink,
        reps,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for r in &results {
        print_tables(r);
    }
    if let Some(path) = out {
        let file = result_file(c, &results).render() + "\n";
        if let Err(e) = std::fs::write(path, file) {
            eprintln!("cannot write {path}: {e}");
            return 2;
        }
        println!("wrote {path}");
    }
    if results.iter().all(WorkloadResult::correct) {
        0
    } else {
        1
    }
}

fn result_file(c: &Common, results: &[WorkloadResult]) -> Json {
    let workloads = results.iter().map(|r| {
        let e2e = r.end_to_end.iter().map(|(name, s)| {
            let unit = spec::end_to_end(name).map_or("", |m| m.unit);
            (
                *name,
                Json::obj([
                    ("value", Json::Num(s.value)),
                    ("q1", Json::Num(s.q1)),
                    ("q3", Json::Num(s.q3)),
                    ("reps", Json::Num(s.reps as f64)),
                    ("unit", Json::Str(unit.into())),
                ]),
            )
        });
        let layers = PER_LAYER.iter().filter_map(|m| {
            let v = r.per_layer.get(m.name)?;
            Some((
                m.name,
                Json::obj([("value", Json::Num(*v)), ("unit", Json::Str(m.unit.into()))]),
            ))
        });
        (
            r.name,
            Json::obj([
                ("correct", Json::Bool(r.correct())),
                ("attempted", Json::Num(r.attempted as f64)),
                ("failed", Json::Num(r.failed as f64)),
                ("end_to_end", Json::obj(e2e)),
                ("per_layer", Json::obj(layers)),
                (
                    "ledger_us_per_op",
                    Json::Obj(
                        r.ledger
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::Num(*v)))
                            .collect(),
                    ),
                ),
            ]),
        )
    });
    Json::obj([
        ("seed", Json::Num(c.seed as f64)),
        ("shrink", Json::Num(c.shrink as f64)),
        ("sub_seeds", Json::Num(c.sub_seeds as f64)),
        ("claim", Json::Null),
        ("workloads", Json::obj(workloads)),
    ])
}

/// `benchmark calibrate`: measures how strongly a workload's host time
/// follows the two speed probes, to set `Workload::speed_exponents`.
///
/// Runs `units` untraced units of one sub-seed (one schedule, so that only
/// the machine varies), groups them into runs of 64, and prints the
/// coefficient of variation of the runs' mean `metric` (a scaled one; it is
/// unscaled first) for each pair of exponents. The pair with the least variation is the one to use; let it
/// run for some minutes, so that the machine passes through its states.
pub fn calibrate(c: &Common, w: &'static Workload, units: u64, metric: &str) -> i32 {
    const PER_RUN: usize = 64;
    const GRID: [f64; 7] = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2];
    // (raw metric, clock probe, memory probe)
    let mut samples: Vec<(f64, f64, f64)> = Vec::new();
    for i in 0..units {
        let u = unit(c, w, 0, false);
        let get = |k: &str| u.values.get(k).copied();
        match (
            get(metric),
            get("benchmark.speed_scale"),
            get("benchmark.clock_probe_us"),
            get("benchmark.memory_probe_us"),
        ) {
            (Some(v), Some(scale), Some(clock), Some(memory)) if u.failed_checks.is_empty() => {
                samples.push((v / scale, clock, memory));
            }
            _ => {
                eprintln!("unit {i} failed: {:?}", u.failed_checks);
                return 1;
            }
        }
    }
    let variation = |ce: f64, me: f64| {
        let runs: Vec<f64> = samples
            .chunks_exact(PER_RUN)
            .map(|run| {
                let scaled = run.iter().map(|(raw, clock, memory)| {
                    raw * (crate::measure::NOMINAL_CLOCK_US / clock).powf(ce)
                        * (crate::measure::NOMINAL_MEMORY_US / memory).powf(me)
                });
                scaled.sum::<f64>() / PER_RUN as f64
            })
            .collect();
        let mean = runs.iter().sum::<f64>() / runs.len().max(1) as f64;
        let var = runs.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / runs.len().max(1) as f64;
        var.sqrt() / mean
    };
    println!(
        "# {} {metric}: coefficient of variation of {} runs of {PER_RUN} units, by (clock, memory) exponent; now {:?}",
        w.name,
        samples.len() / PER_RUN,
        w.speed_exponents
    );
    println!(
        "clock\\memory {}",
        GRID.map(|me| format!("{me:>6.1}")).join(" ")
    );
    let mut best = (f64::INFINITY, 0.0, 0.0);
    for ce in GRID {
        let row = GRID.map(|me| {
            let cv = variation(ce, me);
            if cv < best.0 {
                best = (cv, ce, me);
            }
            format!("{cv:>6.3}")
        });
        println!("{ce:>12.1} {}", row.join(" "));
    }
    println!(
        "least variation {:.3} at ({:.1}, {:.1}); raw {:.3}",
        best.0,
        best.1,
        best.2,
        variation(0.0, 0.0)
    );
    for (name, pick) in [("clock", 1), ("memory", 2)] {
        let readings: Vec<f64> = samples
            .iter()
            .map(|s| if pick == 1 { s.1 } else { s.2 })
            .collect();
        let (q1, median, q3) = quartiles(&readings);
        println!("{name} probe: q1 {q1:.0}  median {median:.0}  q3 {q3:.0} us");
    }
    0
}
