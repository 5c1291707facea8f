//! Smoke test of the whole benchmark in `--quick` mode (one repetition,
//! unit sizes ÷ 20, every output check on): a CI step can run
//! `cargo test` in `benchmark/` without a source change here.

use esync_benchmark::json::{self, Json};
use esync_benchmark::spec;
use std::collections::BTreeSet;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_benchmark");

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Json) -> Vec<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_states_what_the_registry_states() {
    let file = benchmark_json();
    let run_seconds = file
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds") as u64;
    let registry =
        json::parse(&spec::benchmark_json(run_seconds)).expect("the registry renders JSON");
    assert_eq!(
        file, registry,
        "regenerate with `benchmark/run.sh spec > BENCHMARK.json`"
    );

    // The contract's own limits.
    let keys: Vec<&str> = file.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let mut seen = BTreeSet::new();
    for list in ["workloads", "end_to_end", "per_layer"] {
        for name in names(file.get(list).unwrap()) {
            assert!(
                name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(seen.insert(name.clone()), "{name} is used twice");
        }
    }
    for w in file.get("workloads").unwrap().as_arr().unwrap() {
        let why = w.get("why").and_then(Json::as_str).unwrap();
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why too long: {why}"
        );
    }
    let e2e = file.get("end_to_end").unwrap().as_arr().unwrap();
    assert!(e2e.iter().any(|m| {
        m.get("name").and_then(Json::as_str) == Some("setup_s")
            && m.get("unit").and_then(Json::as_str) == Some("s")
            && m.get("better").and_then(Json::as_str) == Some("lower")
    }));
    for m in e2e {
        let bound = m.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
    }
    assert!(names(file.get("per_layer").unwrap()).len() <= 128);
}

/// Every metric of `BENCHMARK.json` is printed exactly once per workload,
/// with a finite value, and every output check passes.
#[test]
fn quick_run_prints_every_metric_once_per_workload() {
    let file = benchmark_json();
    let mut metrics = names(file.get("end_to_end").unwrap());
    metrics.extend(names(file.get("per_layer").unwrap()));
    let out = Command::new(BIN)
        .args(["all", "--quick", "--seed", "7"])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "quick run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!stdout.contains("FAILED CHECK"), "{stdout}");
    for workload in names(file.get("workloads").unwrap()) {
        let section: Vec<&str> = stdout
            .lines()
            .skip_while(|l| !l.starts_with(&format!("## {workload} ")))
            .skip(1)
            .take_while(|l| !l.starts_with("## "))
            .collect();
        assert!(!section.is_empty(), "no section for {workload}");
        for metric in &metrics {
            let rows: Vec<&&str> = section
                .iter()
                .filter(|l| l.split_whitespace().next() == Some(metric.as_str()))
                .collect();
            assert_eq!(
                rows.len(),
                1,
                "{workload}: {metric} printed {} times",
                rows.len()
            );
            let value: f64 = rows[0]
                .split_whitespace()
                .nth(1)
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{workload}: {metric} has no number in `{}`", rows[0]));
            assert!(value.is_finite(), "{workload}: {metric} = {value}");
        }
    }
}

/// The driver's contract on one workload, both ways: the last line is one
/// JSON object with exactly the four keys, carrying every end-to-end
/// metric untraced and every per-layer metric traced.
#[test]
fn contract_line_carries_the_right_metrics() {
    let file = benchmark_json();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = Command::new(BIN)
            .args([
                "run",
                "--quick",
                "--workload",
                "sim_group_s8",
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                trace,
            ])
            .output()
            .expect("the benchmark binary runs");
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = json::parse(stdout.lines().last().expect("a last line"))
            .expect("the last line is JSON");
        let keys: Vec<&str> = line.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{stdout}");
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let got: BTreeSet<&str> = line
            .get("metrics")
            .unwrap()
            .as_obj()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        let want = names(file.get(list).unwrap());
        assert_eq!(
            got,
            want.iter().map(String::as_str).collect::<BTreeSet<_>>()
        );
        for (name, m) in line.get("metrics").unwrap().as_obj().unwrap() {
            assert!(
                m.get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite),
                "{name}"
            );
            assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name}");
        }
    }
}
