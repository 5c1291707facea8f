//! `benchmark compare A.json B.json`: compares two result files metric by
//! metric against the bounds the benchmark fixed. This is the tool an
//! A/B of two commits (or `run.sh --repeat-check` on one) is judged by.
//!
//! * A simulated-time metric on a `sim_*` workload is a pure function of
//!   the seed: with equal seeds and sizes it must be *equal*, and any
//!   difference is reported as a regression of behaviour.
//! * A host-time metric regresses when B's reported value (the median
//!   over its repetitions) is worse than A's by more than the metric's
//!   bound. When either side's own quartile spread over its repetitions
//!   exceeds the bound the verdict is `unresolved`, not `ok`.

use crate::json::{self, Json};
use crate::spec::{is_sim, Better, END_TO_END, WORKLOADS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    Unresolved,
    Regression,
    Missing,
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Returns the process exit code: 0 when nothing regressed, 1 on a
/// regression or a missing row, 2 when a file cannot be read.
pub fn run(a_path: &str, b_path: &str) -> i32 {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let same_inputs = ["seed", "shrink", "sub_seeds"]
        .iter()
        .all(|k| a.get(k).and_then(Json::as_f64) == b.get(k).and_then(Json::as_f64));
    println!("# compare  A = {a_path}  B = {b_path}  (same seed and sizes: {same_inputs})");
    println!(
        "{:<22} {:<16} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound", "spread"
    );
    let mut worst = Verdict::Ok;
    for w in WORKLOADS {
        let side = |f: &Json| f.get("workloads").and_then(|ws| ws.get(w.name)).cloned();
        let (Some(wa), Some(wb)) = (side(&a), side(&b)) else {
            continue; // a file made with --workload holds fewer rows
        };
        for (f, label) in [(&wa, "A"), (&wb, "B")] {
            if f.get("correct").and_then(Json::as_bool) != Some(true) {
                println!("{:<22} output checks failed in {label}", w.name);
                worst = Verdict::Regression;
            }
        }
        for m in END_TO_END {
            let stat = |f: &Json, key: &str| f.get("end_to_end")?.get(m.name)?.get(key)?.as_f64();
            let verdict;
            let mut cells = (f64::NAN, f64::NAN, f64::NAN, f64::NAN);
            match (stat(&wa, "value"), stat(&wb, "value")) {
                (Some(ma), Some(mb)) => {
                    let worse_by = match m.better {
                        Better::Lower => (mb - ma) / ma.abs(),
                        Better::Higher => (ma - mb) / ma.abs(),
                    };
                    let spread = |f: &Json, value: f64| {
                        let iqr = stat(f, "q3").unwrap_or(value) - stat(f, "q1").unwrap_or(value);
                        iqr / value.abs()
                    };
                    let spread = spread(&wa, ma).max(spread(&wb, mb));
                    cells = (ma, mb, worse_by, spread);
                    verdict = if m.sim_time && is_sim(w.name) && same_inputs {
                        if ma == mb {
                            Verdict::Ok
                        } else {
                            Verdict::Regression
                        }
                    } else if worse_by <= m.bound {
                        Verdict::Ok
                    } else if spread > m.bound {
                        Verdict::Unresolved
                    } else {
                        Verdict::Regression
                    };
                }
                _ => verdict = Verdict::Missing,
            }
            let exact = m.sim_time && is_sim(w.name) && same_inputs;
            println!(
                "{:<22} {:<16} {:>14.6} {:>14.6} {:>8.1}% {:>7} {:>7.1}%  {}",
                w.name,
                m.name,
                cells.0,
                cells.1,
                cells.2 * 100.0,
                if exact {
                    "exact".to_string()
                } else {
                    format!("{:.0}%", m.bound * 100.0)
                },
                cells.3 * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "unresolved (spread exceeds the bound)",
                    Verdict::Regression if exact => "REGRESSION (exact metric differs)",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Missing => "MISSING",
                }
            );
            worst = match (worst, verdict) {
                (_, Verdict::Regression | Verdict::Missing)
                | (Verdict::Regression | Verdict::Missing, _) => Verdict::Regression,
                (Verdict::Unresolved, _) | (_, Verdict::Unresolved) => Verdict::Unresolved,
                _ => Verdict::Ok,
            };
        }
    }
    match worst {
        Verdict::Ok => {
            println!("result: no regression");
            0
        }
        Verdict::Unresolved => {
            println!("result: no regression shown; some rows are unresolved (too noisy to call)");
            0
        }
        _ => {
            println!("result: REGRESSION");
            1
        }
    }
}
