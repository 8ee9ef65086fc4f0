//! What the benchmark's numbers rest on: exact work counters, lines and
//! dynamic cost repeat across passes and across processes, the Table 1
//! totals equal the committed `BENCH_table1.json` columns, every
//! workload's outputs check out, and every run reports exactly the
//! metrics `BENCHMARK.json` declares. Each run is a separate process,
//! since the solver caches and the daemon's span hooks are process-wide.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use serve::json::{parse, Json};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// The `(name, unit)` pairs `BENCHMARK.json` declares for one mode.
fn declared(trace: bool) -> BTreeMap<String, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let doc = parse(&text).expect("BENCHMARK.json is JSON");
    let list = if trace { "per_layer" } else { "end_to_end" };
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one short benchmark process and returns its result line's
/// metrics, after asserting that every output checked out and that the
/// metrics are exactly the declared ones, with their units.
fn run(workload: &str, seed: u64, trace: bool) -> BTreeMap<String, f64> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result = parse(last).expect("result line is JSON");
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: {last}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{workload}: {last}"
    );
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("{workload}: no metrics object in {last}");
    };
    let units: BTreeMap<String, String> = metrics
        .iter()
        .map(|(k, v)| {
            (
                k.clone(),
                v.get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned(),
            )
        })
        .collect();
    assert_eq!(units, declared(trace), "{workload}: reported metrics");
    metrics
        .iter()
        .map(|(k, v)| match v.get("value") {
            Some(Json::Num(x)) => (k.clone(), *x),
            _ => panic!("{workload}: metric {k} has no numeric value"),
        })
        .collect()
}

fn solver_counts(metrics: &BTreeMap<String, f64>) -> BTreeMap<String, f64> {
    metrics
        .iter()
        .filter(|(k, _)| k.starts_with("cgplus.omega.") || k.starts_with("cloog.omega."))
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

#[test]
fn threads_one_work_counts_repeat_across_processes() {
    // Within one process the traced run already generates the count pass
    // twice and fails the run when the two differ.
    for workload in ["table1_cold", "table1_warm", "corpus_small"] {
        let a = solver_counts(&run(workload, 0, true));
        let b = solver_counts(&run(workload, 1, true));
        assert_eq!(a.len(), 18, "{workload}: {a:?}");
        assert_eq!(a, b, "{workload}: counts differ between processes");
    }
}

#[test]
fn table1_totals_match_the_committed_baseline() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCH_table1.json");
    let text = std::fs::read_to_string(&path).expect("BENCH_table1.json is readable");
    let baseline = parse(&text).expect("BENCH_table1.json is JSON");
    let rows = baseline.get("rows").and_then(Json::as_arr).expect("rows");
    let total = |tool: &str, column: &str| -> f64 {
        rows.iter()
            .map(|r| {
                r.get(tool)
                    .and_then(|t| t.get(column))
                    .and_then(Json::as_u64)
                    .expect("column") as f64
            })
            .sum()
    };
    for workload in ["table1_cold", "table1_warm"] {
        let m = run(workload, 0, false);
        assert_eq!(m["cgplus_lines"], total("cgplus", "lines"), "{workload}");
        assert_eq!(m["cloog_lines"], total("cloog", "lines"), "{workload}");
        assert_eq!(
            m["cgplus_dyn_cost"],
            total("cgplus", "dynamic_cost"),
            "{workload}"
        );
        assert_eq!(
            m["cloog_dyn_cost"],
            total("cloog", "dynamic_cost"),
            "{workload}"
        );
    }
}

#[test]
fn corpus_and_daemon_outputs_check_out() {
    let corpus = run("corpus_small", 3, false);
    assert_eq!(corpus["ok_ratio"], 1.0);
    let again = run("corpus_small", 4, false);
    assert_eq!(
        corpus["cgplus_lines"], again["cgplus_lines"],
        "the corpus set is seed-independent"
    );
    let daemon = run("daemon_table1", 0, false);
    assert_eq!(daemon["ok_ratio"], 1.0);
    assert_eq!(daemon["exact_ratio"], 1.0);
    let layers = run("daemon_table1", 0, true);
    assert_eq!(layers["serve.shed"], 0.0);
}
