//! # perfbench — the repository benchmark
//!
//! Measures the work the CodeGen+ reproduction does for its users, at
//! cold and warm solver-cache state, for both generators, split by
//! layer. It calls only the crates' public functions
//! (`chill::recipes`, `difftest::gen_case`, `CodeGen::generate`,
//! `Cloog::generate`, `polyir::passes::compile`, `serve::spawn` plus
//! `POST /v1/gen`), reads `omega::stats` snapshot deltas around those
//! calls, and opens its own spans (`bench_cgplus`, `bench_cloog`,
//! `bench_compile`) around each call in traced runs. No probe is added
//! inside any crate.
//!
//! One process runs one workload:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1_cold --seed 0 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! records the host's `nproc`, the resolved thread counts and the sample
//! counts. `--trace 0` reports the end-to-end metrics of
//! `BENCHMARK.json`, measured untraced at the default `CodeGen`
//! configuration, with times scaled to a reference host speed by an
//! in-run calibration loop; `--trace 1` reports the per-layer metrics.
//! `perfbench/METRICS.md` documents the workloads, every metric, and
//! which end-to-end metric each per-layer metric should move.

pub mod batch;
pub mod daemon;
pub mod layers;
pub mod programs;
pub mod stats;

use std::fmt::Write as _;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "table1_cold",
    "table1_warm",
    "corpus_small",
    "daemon_table1",
];

/// One run's settings, parsed from the command line.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Fixes the corpus seed range and the daemon's request order.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Report the per-layer metrics (traced run) instead of the
    /// end-to-end ones.
    pub trace: bool,
}

/// What one run reports: output-check totals, metrics and run facts.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Generated programs (and daemon requests) whose output was checked.
    pub attempted: u64,
    /// Checked outputs that disagreed with their oracle, or errors on
    /// programs the oracle says can be generated.
    pub failed: u64,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Facts about the run (host, resolved configuration, sample counts).
    pub info: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Appends a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Appends a run fact.
    pub fn fact(&mut self, key: &'static str, value: impl ToString) {
        self.info.push((key, value.to_string()));
    }

    /// The result line: `{"correct": …, "attempted": …, "failed": …,
    /// "metrics": {name: {"value": …, "unit": …}}}`. Values keep every
    /// digit Rust's shortest round-trip formatting gives.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }

    /// The run-facts line printed before the result.
    pub fn info_json(&self) -> String {
        let fields: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{v}\""))
            .collect();
        format!("{{\"info\": {{{}}}}}", fields.join(", "))
    }
}

/// Runs one workload.
///
/// # Errors
///
/// Returns a message for an unknown workload or a daemon that cannot be
/// started.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.fact("workload", &args.workload);
    out.fact("seed", args.seed);
    out.fact("nproc", stats::nproc());
    let cg = codegenplus::CodeGen::new();
    out.fact("cgplus_threads", cg.resolved_threads());
    out.fact("cgplus_intra_threads", cg.resolved_intra_threads());
    match args.workload.as_str() {
        "table1_cold" | "table1_warm" => {
            let cache = if args.workload == "table1_cold" {
                batch::Cache::Cold
            } else {
                batch::Cache::Warm
            };
            batch::run(
                programs::table1_kernels,
                "chill.build_ms",
                cache,
                args,
                &mut out,
            );
        }
        "corpus_small" => batch::run(
            || programs::corpus(args.seed),
            "difftest.gen_ms",
            batch::Cache::Cold,
            args,
            &mut out,
        ),
        "daemon_table1" => daemon::run(args, &mut out)?,
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of {WORKLOADS:?})"
            ))
        }
    }
    Ok(out)
}
