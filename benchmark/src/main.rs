//! The repository's performance benchmark. See `README.md` next to this
//! crate and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! benchmark run  --workload W --seed N --seconds S --trace 0|1   one workload, one JSON object last (the driver's contract)
//! benchmark all  [--seed N] [--workload W] [--out FILE] [--quick] every workload: 5 interleaved repetitions, a traced pass, the probes
//! benchmark compare A.json B.json                                two result files against the bounds; nonzero on a regression
//! benchmark spec [--markdown]                                    prints the BENCHMARK.json the metric registry describes (or README's tables)
//! benchmark calibrate --workload W [--units N] [--metric M]      how strongly W follows the speed probes (sets its speed_exponents)
//! benchmark unit ...                                             one unit (what the runner spawns)
//! ```

use esync_benchmark::{compare, runner, spec, units};
use std::time::Instant;

/// Repetitions per workload of the full invocation.
const REPS: usize = 5;
/// `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: u64 = 15;
/// `--quick`: one repetition of `spec::QUICK_SUB_SEEDS` units, unit sizes
/// divided by this.
const QUICK_SHRINK: u64 = 20;

struct Args(Vec<String>);

impl Args {
    fn value(&self, key: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == key)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    fn number(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.value(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{key} takes a whole number, not `{v}`")),
        }
    }

    fn common(&self) -> Result<runner::Common, String> {
        let quick = self.flag("--quick");
        Ok(runner::Common {
            seed: self.number("--seed", 1)?,
            shrink: if quick { QUICK_SHRINK } else { 1 },
            sub_seeds: if quick {
                spec::QUICK_SUB_SEEDS
            } else {
                spec::SUB_SEEDS
            },
        })
    }

    fn workload(&self) -> Result<Option<&'static spec::Workload>, String> {
        match self.value("--workload") {
            None => Ok(None),
            Some(name) => spec::workload(name).map(Some).ok_or_else(|| {
                let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                format!(
                    "unknown workload `{name}`; the workloads are {}",
                    known.join(", ")
                )
            }),
        }
    }
}

fn dispatch(started: Instant, args: &Args) -> Result<i32, String> {
    let command = args.0.first().map(String::as_str).unwrap_or("");
    match command {
        "unit" => {
            let workload = args.workload()?.ok_or("unit needs --workload")?;
            let out = units::run(&units::UnitArgs {
                workload,
                seed: args.number("--seed", 1)?,
                traced: args.number("--trace", 0)? != 0,
                shrink: args.number("--shrink", 1)?.max(1),
                started: units::Started {
                    main: started,
                    spawned_unix_ns: args.value("--spawned-at").and_then(|v| v.parse().ok()),
                },
            });
            println!("{}", runner::unit_line(&out));
            Ok(0)
        }
        "run" => {
            let workload = args.workload()?.ok_or("run needs --workload")?;
            let seconds = args.number("--seconds", RUN_SECONDS)?;
            Ok(runner::run_contract(
                &args.common()?,
                workload,
                seconds,
                args.number("--trace", 0)? != 0,
            ))
        }
        "all" => {
            let reps = if args.flag("--quick") { 1 } else { REPS };
            Ok(runner::run_all(
                &args.common()?,
                args.workload()?,
                reps,
                args.value("--out"),
            ))
        }
        "calibrate" => {
            let workload = args.workload()?.ok_or("calibrate needs --workload")?;
            let metric = args.value("--metric").unwrap_or("host_us_per_op");
            Ok(runner::calibrate(
                &args.common()?,
                workload,
                args.number("--units", 640)?,
                metric,
            ))
        }
        "compare" => match (args.0.get(1), args.0.get(2)) {
            (Some(a), Some(b)) => Ok(compare::run(a, b)),
            _ => Err("compare takes two result files".into()),
        },
        "spec" => {
            if args.flag("--markdown") {
                print!("{}", spec::markdown());
            } else {
                print!("{}", spec::benchmark_json(RUN_SECONDS));
            }
            Ok(0)
        }
        other => Err(format!(
            "unknown command `{other}`; see benchmark/README.md"
        )),
    }
}

fn main() {
    let started = Instant::now();
    let args = Args(std::env::args().skip(1).collect());
    match dispatch(started, &args) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    }
}
