//! The in-process workloads: `table1_cold`, `table1_warm` and
//! `corpus_small`. Each is a closed loop of passes over its programs,
//! driven from one thread.

use crate::layers::{Split, LAYERS};
use crate::programs::{
    check_against, run_pass, verify, Pass, Program, Reference, Tally, Threads, TOOLS,
};
use crate::stats::{median, ms, quantile, ratio, Calibration, Work, CALIBRATION_REF_MS};
use crate::{Outcome, RunArgs};
use std::time::{Duration, Instant};

/// Solver-cache state the passes run at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cache {
    /// `omega::reset_sat_cache()` before every generation.
    Cold,
    /// Primed by one untimed pass in set-up, never reset.
    Warm,
}

/// Passes every run makes at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// Set-up repeats at least this often, then until it has taken
/// [`SETUP_BUDGET`], and `setup_s` is the median.
const SETUP_REPS: usize = 5;
const SETUP_BUDGET: Duration = Duration::from_millis(500);
const SETUP_MAX_REPS: usize = 2000;

/// Runs `setup` repeatedly (see [`SETUP_REPS`]) and returns the last
/// result with the median wall time in seconds.
pub fn repeat_setup<R>(mut setup: impl FnMut() -> R) -> (R, f64) {
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let r = setup();
        times.push(t0.elapsed().as_secs_f64());
        let enough = times.len() >= SETUP_REPS && started.elapsed() >= SETUP_BUDGET;
        if enough || times.len() >= SETUP_MAX_REPS {
            return (r, median(&times));
        }
    }
}

/// The per-layer metrics that time building a workload's inputs.
pub const INPUT_LAYERS: [&str; 2] = ["chill.build_ms", "difftest.gen_ms"];

/// Reports `build_ms` (median) under `layer`, one of [`INPUT_LAYERS`],
/// and 0 for the input layer the workload does not use.
pub fn report_inputs(layer: &str, build_ms: &[f64], out: &mut Outcome) {
    for name in INPUT_LAYERS {
        out.metric(
            name,
            if name == layer { median(build_ms) } else { 0.0 },
            "ms",
        );
    }
}

/// Runs one batch workload: set-up, output checks, then the end-to-end
/// loop or the traced layer run. `build` makes the inputs; its time is
/// reported under `build_layer`.
pub fn run(
    build: impl Fn() -> Vec<Program>,
    build_layer: &str,
    cache: Cache,
    args: &RunArgs,
    out: &mut Outcome,
) {
    let mut build_ms = Vec::new();
    // Set-up: build the inputs; a warm workload also primes the caches
    // with one pass of both tools from empty caches.
    let ((programs, priming), setup_s) = repeat_setup(|| {
        let t0 = Instant::now();
        let programs = build();
        build_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let priming = (cache == Cache::Warm).then(|| {
            omega::reset_sat_cache();
            run_pass(&programs, false, Threads::Default, false)
        });
        (programs, priming)
    });
    let cold = cache == Cache::Cold;
    let mut tally = Tally::default();
    let checked = priming.unwrap_or_else(|| run_pass(&programs, true, Threads::Default, false));
    let reference = verify(&programs, &checked, &mut tally);
    drop(checked);
    out.fact("programs", programs.len());
    if args.trace {
        report_inputs(build_layer, &build_ms, out);
        let mut untraced = EndToEnd::default();
        layer_run(
            &programs,
            cold,
            &reference,
            args.seconds,
            &mut untraced,
            &mut tally,
            out,
        );
        untraced.report_per_layer(out);
        serve_absent(out);
    } else {
        let mut e2e = EndToEnd {
            setup_s,
            lines: TOOLS.map(|t| reference.lines(t)),
            dyn_cost: TOOLS.map(|t| reference.dyn_cost(t)),
            ..EndToEnd::default()
        };
        crate::stats::reset_peak_rss();
        let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
        while e2e.cgplus_pass_ms.len() < MIN_PASSES || Instant::now() < deadline {
            e2e.calibrate();
            let pass = run_pass(&programs, cold, Threads::Default, false);
            check_against(&reference, &pass, &mut tally);
            e2e.add_pass(&pass);
        }
        e2e.tally = tally;
        e2e.report(out);
    }
    out.attempted = tally.attempted;
    out.failed = tally.failed;
}

/// End-to-end samples of one run, reported under the names and units of
/// `BENCHMARK.json` (shared with the daemon workload).
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Median set-up time.
    pub setup_s: f64,
    /// Per-pass CodeGen+ generation time.
    pub cgplus_pass_ms: Vec<f64>,
    /// Per-pass CLooG generation time.
    pub cloog_pass_ms: Vec<f64>,
    /// Per-pass compile time of the CodeGen+ outputs.
    pub cgplus_compile_ms: Vec<f64>,
    /// Per-request latency: one CodeGen+ generation in process, one
    /// `POST /v1/gen` through the daemon.
    pub request_ms: Vec<f64>,
    /// Requests served per second, one sample per pass or round.
    pub requests_per_s: Vec<f64>,
    /// Lines per pass, `[CodeGen+, CLooG]`.
    pub lines: [u64; 2],
    /// Dynamic cost per pass, `[CodeGen+, CLooG]`.
    pub dyn_cost: [u64; 2],
    /// Calibration loop times, one before each pass or round.
    pub calibration_ms: Vec<f64>,
    /// The calibration loop's buffers.
    pub calibration: Calibration,
    /// Output checks.
    pub tally: Tally,
}

impl EndToEnd {
    /// Times the calibration loop once (outside any measured call).
    pub fn calibrate(&mut self) {
        let t = self.calibration.run_ms();
        self.calibration_ms.push(t);
    }

    /// Factor that scales this run's wall times to the reference host
    /// speed: `CALIBRATION_REF_MS` over the run's median calibration time.
    fn host_factor(&self) -> f64 {
        if self.calibration_ms.is_empty() {
            1.0
        } else {
            CALIBRATION_REF_MS / median(&self.calibration_ms)
        }
    }

    /// Records an in-process pass.
    pub fn add_pass(&mut self, pass: &Pass) {
        self.cgplus_pass_ms.push(ms(pass.gen_ns[0]));
        self.cloog_pass_ms.push(ms(pass.gen_ns[1]));
        self.cgplus_compile_ms.push(ms(pass.compile_ns));
        self.request_ms
            .extend(pass.cgplus_ns.iter().map(|&ns| ms(ns)));
        self.requests_per_s
            .push(pass.cgplus_ns.len() as f64 * 1e9 / pass.gen_ns[0].max(1) as f64);
    }

    /// Appends the end-to-end metrics. Every time is scaled to the
    /// reference host speed (see [`Calibration`]); lines, costs, ratios
    /// and memory are not.
    pub fn report(&self, out: &mut Outcome) {
        let t = &self.tally;
        let k = self.host_factor();
        out.metric("setup_s", k * self.setup_s, "s");
        out.metric("cgplus_pass_ms_p50", k * median(&self.cgplus_pass_ms), "ms");
        out.metric("cloog_pass_ms_p50", k * median(&self.cloog_pass_ms), "ms");
        out.metric("cgplus_lines", self.lines[0] as f64, "lines");
        out.metric("cloog_lines", self.lines[1] as f64, "lines");
        out.metric("cgplus_dyn_cost", self.dyn_cost[0] as f64, "cost");
        out.metric("cloog_dyn_cost", self.dyn_cost[1] as f64, "cost");
        out.metric(
            "cgplus_compile_ms_p50",
            k * median(&self.cgplus_compile_ms),
            "ms",
        );
        out.metric("ok_ratio", 1.0 - ratio(t.failed, t.attempted), "ratio");
        out.metric("exact_ratio", 1.0 - ratio(t.degraded, t.attempted), "ratio");
        out.metric("peak_rss_mb", crate::stats::peak_rss_mb(), "MiB");
        out.metric("request_ms_p50", k * median(&self.request_ms), "ms");
        out.metric("requests_per_s", median(&self.requests_per_s) / k, "1/s");
        out.fact("calibration_ms", median(&self.calibration_ms));
        out.fact("host_factor", k);
        out.fact("passes", self.cgplus_pass_ms.len());
        out.fact("cloog_passes", self.cloog_pass_ms.len());
        out.fact("requests", self.request_ms.len());
    }

    /// Appends the tail percentiles (scaled like [`EndToEnd::report`]) and
    /// the raw calibration time as per-layer metrics. On a shared two-core
    /// host the tails' run-to-run spread (0.21-0.30 of the median over ten
    /// seeded 25 s runs, unscaled) exceeds any usable regression bound, so
    /// they are reported without one.
    pub fn report_per_layer(&self, out: &mut Outcome) {
        let k = self.host_factor();
        out.metric("host.calibration_ms", median(&self.calibration_ms), "ms");
        out.metric(
            "tail.cgplus_pass_ms_p90",
            k * quantile(&self.cgplus_pass_ms, 0.9),
            "ms",
        );
        out.metric(
            "tail.cloog_pass_ms_p90",
            k * quantile(&self.cloog_pass_ms, 0.9),
            "ms",
        );
        out.metric(
            "tail.request_ms_p99",
            k * quantile(&self.request_ms, 0.99),
            "ms",
        );
    }
}

/// The serve-layer metrics on a workload that does not go through the
/// daemon: the layer does no work there.
fn serve_absent(out: &mut Outcome) {
    out.metric("serve.codegen_ms_p50", 0.0, "ms");
    out.metric("serve.overhead_ms_p50", 0.0, "ms");
    out.metric("serve.shed", 0.0, "count");
}

/// The traced layer run over `programs`: exact work counts at
/// threads=1 (twice — they must repeat), untraced passes for half of
/// `seconds` (also recorded into `untraced`) and traced passes for the
/// other half, all at the default configuration. Reports the layer,
/// `par`, per-tool count and `trace` metrics.
pub fn layer_run(
    programs: &[Program],
    cold: bool,
    reference: &Reference,
    seconds: f64,
    untraced: &mut EndToEnd,
    tally: &mut Tally,
    out: &mut Outcome,
) {
    let counts = run_pass(programs, cold, Threads::One, false);
    let again = run_pass(programs, cold, Threads::One, false);
    check_against(reference, &counts, tally);
    check_against(reference, &again, tally);
    // Work counts that do not repeat exactly are a failed check.
    tally.attempted += 1;
    tally.failed += u64::from(counts.work != again.work);

    let half = Duration::from_secs_f64(seconds / 2.0);
    let mut untraced_ms = Vec::new();
    let mut par: Vec<[u64; 3]> = Vec::new();
    let deadline = Instant::now() + half;
    while untraced_ms.len() < MIN_PASSES || Instant::now() < deadline {
        untraced.calibrate();
        let pass = run_pass(programs, cold, Threads::Default, false);
        check_against(reference, &pass, tally);
        untraced.add_pass(&pass);
        untraced_ms.push(ms(pass.total_ns()));
        let w = |f: fn(&Work) -> u64| pass.work.iter().map(f).sum::<u64>();
        par.push([
            w(|w| w.par_batches),
            w(|w| w.par_tasks),
            w(|w| w.par_steals),
        ]);
    }

    let mut traced_ms = Vec::new();
    let mut split = Split::default();
    let deadline = Instant::now() + half;
    while traced_ms.len() < MIN_PASSES || Instant::now() < deadline {
        let pass = run_pass(programs, cold, Threads::Default, true);
        check_against(reference, &pass, tally);
        traced_ms.push(ms(pass.total_ns()));
        split.add(&pass.split);
    }

    let passes = traced_ms.len() as f64;
    let mean_ms = |ns: i64| ns as f64 / 1e6 / passes;
    for ((name, _), &ns) in LAYERS.iter().zip(&split.layer_ns) {
        out.metric(*name, mean_ms(ns), "ms");
    }
    out.metric("par.worker_ms", mean_ms(split.worker_ns as i64), "ms");
    for (i, name) in ["par.batches", "par.tasks", "par.steals"]
        .into_iter()
        .enumerate()
    {
        let per_pass: Vec<f64> = par.iter().map(|p| p[i] as f64).collect();
        out.metric(name, median(&per_pass), "count");
    }
    for tool in TOOLS {
        counts.work[tool as usize].report(tool.tag(), out);
    }
    let traced_mean = traced_ms.iter().sum::<f64>() / passes;
    out.metric(
        "trace.overhead_ratio",
        median(&traced_ms) / median(&untraced_ms),
        "ratio",
    );
    out.metric("trace.pass_ms", traced_mean, "ms");
    out.metric(
        "trace.unattributed_ms",
        traced_mean - mean_ms(split.total_ns()),
        "ms",
    );
    out.fact("untraced_passes", untraced_ms.len());
    out.fact("traced_passes", traced_ms.len());
    out.fact("unmapped_ms", mean_ms(split.unmapped_ns));
}
