//! Regenerates Table 1 of the paper: for each of the five kernels, lines
//! of generated code, code generation time, (stand-in) compile time, and
//! the dynamic performance proxy for CLooG vs CodeGen+, with the ratio
//! columns the paper reports.
//!
//! Usage: `cargo run --release -p bench-harness --bin table1 [N] [--gcc]
//! [--json FILE] [--trace FILE.json [--force]] [--dump-dir DIR]
//! [--profile FILE]`
//! (N = problem size; default 64). With `--gcc` and a gcc on PATH, two
//! extra column groups report the *real* `gcc -O3` compile time and the
//! compiled binary's execution time — the paper's literal methodology.
//!
//! An ablation section follows the table: each kernel under CodeGen+ at
//! efforts 0–3 with if-merging on and off, and under the baseline with
//! compaction on and off. Each cell is one generation against cold solver
//! caches and reports exact figures only: lines, dynamic cost, statement
//! instances and sat queries. With `--gcc` each cell also gets the
//! compiled binary's run time, for information.
//!
//! With `--json FILE`, the per-kernel measurements are also written as a
//! machine-readable snapshot (see `BENCH_table1.json` at the repo root
//! for the committed baseline and `scripts/compare_bench.py` for the CI
//! regression gate that consumes it). Each row also embeds a `report`
//! object — the same `omega::report::QueryReport` wide event the `codegend`
//! daemon logs per job and serves at `/debug/requests` — so batch and
//! daemon cost attribution share one vocabulary
//! (`scripts/check_report.py` validates both sides). Its `counters` are
//! the solver work of one untimed cold-cache CodeGen+ generation, and its
//! `phases` are that generation's per-phase wall times, summed by the
//! span hook (`telemetry::span_hook`, installed for the whole run) inside
//! a `telemetry::profile::timed` scope. The ablation cells follow as a
//! top-level `ablations` array.
//!
//! With `--trace FILE.json`, one extra cold-cache CodeGen+ generation per
//! kernel runs under a span collector; the merged trace is written as
//! Chrome trace-event JSON (loadable in Perfetto / `chrome://tracing`)
//! together with a hot-spot summary. An
//! existing trace file is not overwritten unless `--force` is given. With
//! `--dump-dir DIR`, every tier-2 solver query of the traced runs is also
//! written as a replayable `.omega` dump (see `omega-replay`).
//!
//! With `--profile FILE`, the whole run executes under the sampling CPU
//! profiler (`telemetry::profile`, the same engine behind the daemon's
//! `/debug/pprof/profile`) and the collapsed-stack flamegraph text is
//! written to FILE — feed it to `flamegraph.pl` or
//! `scripts/check_profile.py`. As in the daemon, samples taken inside a
//! solver span carry a `span:<name>` root frame. Unsupported platforms
//! warn and run unprofiled.

use bench_harness::gcc::{gcc_available, measure_with_gcc};
use bench_harness::{ablate, compare, generate, statements_of, trace_kernel, traces_match, Tool};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut use_gcc = false;
    let mut force = false;
    let mut trace_path: Option<PathBuf> = None;
    let mut dump_dir: Option<PathBuf> = None;
    let mut json_path: Option<PathBuf> = None;
    let mut profile_path: Option<PathBuf> = None;
    let mut n: i64 = 64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--gcc" => use_gcc = true,
            "--force" => force = true,
            "--json" => match args.next() {
                Some(p) => json_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--json requires a file argument");
                    return ExitCode::FAILURE;
                }
            },
            "--trace" => match args.next() {
                Some(p) => trace_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--trace requires a file argument");
                    return ExitCode::FAILURE;
                }
            },
            "--dump-dir" => match args.next() {
                Some(p) => dump_dir = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--dump-dir requires a directory argument");
                    return ExitCode::FAILURE;
                }
            },
            "--profile" => match args.next() {
                Some(p) => profile_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--profile requires a file argument");
                    return ExitCode::FAILURE;
                }
            },
            other if !other.starts_with("--") => match other.parse() {
                Ok(v) => n = v,
                Err(_) => {
                    eprintln!("unrecognized argument {other}");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown flag {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(p) = &trace_path {
        if p.exists() && !force {
            eprintln!(
                "refusing to overwrite existing trace file {} (pass --force to overwrite)",
                p.display()
            );
            return ExitCode::FAILURE;
        }
    }
    // The one always-on span sink, as in the daemon: it times the
    // reports' phases and, under --profile, gives each sample a
    // `span:<name>` root for the innermost open solver phase.
    omega::trace::install_span_hook(telemetry::span_hook);
    let mut profiling = false;
    if profile_path.is_some() {
        match telemetry::profile::start(telemetry::profile::Options::default()) {
            Ok(()) => profiling = true,
            Err(e) => eprintln!(
                "--profile requested but the sampler is unavailable ({}); running unprofiled",
                e.as_str()
            ),
        }
    }
    let collector = (trace_path.is_some() || dump_dir.is_some()).then(omega::trace::Collector::new);
    if let (Some(c), Some(_)) = (&collector, &dump_dir) {
        c.buffer_queries();
    }
    let mut dumps = (0, 0);
    let gcc_ok = use_gcc && gcc_available();
    if use_gcc && !gcc_ok {
        eprintln!("--gcc requested but no usable gcc found; skipping real-compiler columns");
    }
    println!("Table 1 — comparison of code generation using iteration spaces");
    println!("representing real optimization strategies (problem size n = {n})\n");
    println!(
        "{:6} | {:>7} {:>7} {:>6} | {:>10} {:>10} {:>7} | {:>10} {:>10} {:>7} | {:>12} {:>12} {:>7}",
        "", "CLooG", "CG+", "Red.", "CLooG", "CG+", "Spdup", "CLooG", "CG+", "Spdup", "CLooG", "CG+", "Spdup"
    );
    println!(
        "{:6} | {:^22} | {:^29} | {:^29} | {:^33}",
        "kernel",
        "lines of code",
        "code generation time",
        "compile time",
        "performance (dyn. cost)"
    );
    println!("{}", "-".repeat(130));
    // Tier-2 query totals across the traced generations, from the stats
    // counters; checked against the trace's root spans at the end.
    let mut expected_sat_exact = 0u64;
    let mut expected_gist_exact = 0u64;
    let mut json_rows: Vec<String> = Vec::new();
    let mut ablation_rows: Vec<String> = Vec::new();
    let mut json_ablations: Vec<String> = Vec::new();
    for kernel in chill::recipes::all(n) {
        // The report's counters describe one untimed cold CG+ generation,
        // so they repeat exactly from run to run (the timing loop below
        // repeats as often as the measured time allows). It runs first,
        // leaving the rest of the row a cache that holds this kernel's
        // CG+ answers. Its phases are timed per span name on this thread.
        omega::reset_sat_cache();
        let before = omega::stats::snapshot();
        let (_, spans) =
            telemetry::profile::timed(|| generate(&statements_of(&kernel), Tool::codegenplus()));
        let counters = omega::stats::snapshot().delta(&before);
        let cold_queries = counters.cache_hits + counters.cache_misses;
        // Solver activity attributable to *this* kernel, from the trace
        // check through the timed row: a snapshot diff, not
        // process-cumulative totals (which would make every row's numbers
        // depend on iteration order).
        let before = omega::stats::snapshot();
        assert!(
            traces_match(&kernel),
            "generated code traces differ for {}",
            kernel.name
        );
        let row_t0 = std::time::Instant::now();
        let row = compare(&kernel);
        let row_ns = row_t0.elapsed().as_nanos() as u64;
        let delta = omega::stats::snapshot().delta(&before);
        if json_path.is_some() {
            // The same wide-event schema the codegend daemon logs per job
            // and serves at /debug/requests, so batch and daemon cost
            // attribution diff field-for-field (scripts/check_report.py
            // validates both).
            let report = omega::report::QueryReport {
                id: format!("table1-{}", row.name),
                kind: "kernel",
                source: row.name.to_owned(),
                status: "ok",
                queue_ns: 0,
                ts_ms: omega::report::now_ms(),
                effort: 1,
                lines: row.cgplus.lines,
                bytes: row.cgplus.bytes,
                codegen_ns: row.cgplus.codegen_time.as_nanos() as u64,
                compile_ns: row.cgplus.compile_time.as_nanos() as u64,
                request_ns: row_ns,
                certainty: row.cgplus.certainty.clone(),
                phases: spans
                    .spans
                    .iter()
                    .filter(|s| omega::report::is_phase_name(s.name))
                    .map(|s| (s.name, s.ns))
                    .collect(),
                counters,
                slow: false,
                retained: None,
                error: None,
            };
            json_rows.push(format!(
                "    {{\"kernel\": {:?}, \"cloog\": {}, \"cgplus\": {}, \"report\": {}}}",
                row.name,
                json_report(&row.cloog),
                json_report(&row.cgplus),
                report.to_json()
            ));
        }
        print!(
            "{:6} | {:>7} {:>7} {:>5.2}x | {:>10.2?} {:>10.2?} {:>6.2}x | {:>10.2?} {:>10.2?} {:>6.2}x | {:>12} {:>12} {:>6.3}x",
            row.name,
            row.cloog.lines,
            row.cgplus.lines,
            row.loc_reduction(),
            row.cloog.codegen_time,
            row.cgplus.codegen_time,
            row.codegen_speedup(),
            row.cloog.compile_time,
            row.cgplus.compile_time,
            row.compile_speedup(),
            row.cloog.dynamic_cost,
            row.cgplus.dynamic_cost,
            row.perf_speedup(),
        );
        // Verdicts the resource governor degraded to a conservative answer
        // while generating this kernel — expected 0 at the default limits
        // (every paper result rests on exact verdicts).
        print!(" | degraded {}", delta.sat_degraded + delta.gist_degraded);
        if gcc_ok {
            let stmts = statements_of(&kernel);
            let (cg, _) = generate(&stmts, Tool::codegenplus());
            let (cl, _) = generate(&stmts, Tool::cloog());
            let reps = 20;
            match (
                measure_with_gcc(&cl, &kernel.params, reps),
                measure_with_gcc(&cg, &kernel.params, reps),
            ) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.instances, b.instances, "gcc instance mismatch");
                    print!(
                        " | gcc: compile {:>8.2?} {:>8.2?} {:>5.2}x, run {:>9.2?} {:>9.2?} {:>5.3}x",
                        a.compile_time,
                        b.compile_time,
                        a.compile_time.as_secs_f64() / b.compile_time.as_secs_f64().max(1e-9),
                        a.run_time,
                        b.run_time,
                        a.run_time.as_secs_f64() / b.run_time.as_secs_f64().max(1e-12),
                    );
                }
                (a, b) => {
                    print!(" | gcc failed: {:?} {:?}", a.err(), b.err());
                }
            }
        }
        println!();
        for tool in Tool::ablations() {
            let (g, cell) = ablate(&kernel, tool);
            let exact = (cell.lines, cell.dynamic_cost, cell.sat_queries);
            if tool == Tool::codegenplus() {
                let want = (row.cgplus.lines, row.cgplus.dynamic_cost, cold_queries);
                assert_eq!(
                    exact, want,
                    "{}: ablation cell differs from the row",
                    row.name
                );
            }
            let mut text = format!(
                "{:6} | {:29} | {:>6} {:>12} {:>10} {:>11}",
                row.name,
                tool.label(),
                cell.lines,
                cell.dynamic_cost,
                cell.instances,
                cell.sat_queries
            );
            let mut json = format!(
                "    {{\"kernel\": {:?}, \"variant\": {:?}, \"lines\": {}, \"dynamic_cost\": {}, \"instances\": {}, \"sat_queries\": {}",
                row.name,
                tool.label(),
                cell.lines,
                cell.dynamic_cost,
                cell.instances,
                cell.sat_queries
            );
            if gcc_ok {
                match measure_with_gcc(&g, &kernel.params, 20) {
                    Ok(r) => {
                        text += &format!(" | {:>10.2?}", r.run_time);
                        json += &format!(", \"gcc_run_ns\": {}", r.run_time.as_nanos());
                    }
                    Err(e) => text += &format!(" | gcc failed: {e:?}"),
                }
            }
            ablation_rows.push(text);
            json_ablations.push(json + "}");
        }
        if let Some(c) = &collector {
            let before = omega::stats::snapshot();
            trace_kernel(&kernel, c);
            let after = omega::stats::snapshot();
            expected_sat_exact += after.exact_solves() - before.exact_solves();
            expected_gist_exact += after.gist_misses - before.gist_misses;
            // Written per kernel, so the buffer's cap bounds one kernel's
            // queries, not the whole run's.
            if let Some(d) = &dump_dir {
                let (written, dropped) = c.write_buffered_dumps(d).expect("write query dumps");
                dumps = (dumps.0 + written, dumps.1 + dropped);
            }
        }
    }
    println!("\n(All rows verified: both tools execute identical statement traces.)");
    println!("\nAblations — one generation per cell against cold solver caches (n = {n})\n");
    println!(
        "{:6} | {:29} | {:>6} {:>12} {:>10} {:>11}{}",
        "kernel",
        "variant",
        "lines",
        "dyn. cost",
        "instances",
        "sat queries",
        if gcc_ok { " |    gcc run" } else { "" }
    );
    println!("{}", "-".repeat(if gcc_ok { 96 } else { 83 }));
    for line in &ablation_rows {
        println!("{line}");
    }
    if profiling {
        match telemetry::profile::stop() {
            Ok(profile) => {
                let p = profile_path.as_ref().unwrap();
                let resolved = profile.resolve();
                if let Err(e) = std::fs::write(p, resolved.collapsed()) {
                    eprintln!("cannot write profile {}: {e}", p.display());
                    return ExitCode::FAILURE;
                }
                println!(
                    "collapsed-stack cpu profile written to {} ({} samples, {} dropped)",
                    p.display(),
                    profile.samples.len(),
                    profile.dropped
                );
            }
            Err(e) => {
                eprintln!("profiler stop failed: {}", e.as_str());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(c) = &collector {
        let trace = c.finish();
        assert!(trace.is_well_formed(), "recorded trace is not well-formed");
        println!("\n--- trace summary (cold-cache CodeGen+ runs) ---");
        print!("{}", trace.hotspots(14));
        let sat_spans = trace.count_named("sat_exact") as u64;
        let gist_spans = trace.count_named("gist_exact") as u64;
        assert_eq!(
            sat_spans, expected_sat_exact,
            "sat_exact spans must equal tier-2 sat solves per omega::stats"
        );
        assert_eq!(
            gist_spans, expected_gist_exact,
            "gist_exact spans must equal tier-2 gist computations per omega::stats"
        );
        println!(
            "tier-2 query spans match omega::stats: sat_exact {sat_spans}, gist_exact {gist_spans}"
        );
        if let Some(p) = &trace_path {
            let file = match std::fs::File::create(p) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("cannot create trace file {}: {e}", p.display());
                    return ExitCode::FAILURE;
                }
            };
            let mut w = std::io::BufWriter::new(file);
            if let Err(e) = trace.write_chrome_json(&mut w) {
                eprintln!("cannot write trace file {}: {e}", p.display());
                return ExitCode::FAILURE;
            }
            println!(
                "chrome trace written to {} ({} spans, {} roots)",
                p.display(),
                trace.len(),
                trace.roots.len()
            );
        }
        if let Some(d) = &dump_dir {
            println!(
                "replayable query dumps in {} ({} written, {} dropped past the buffer cap)",
                d.display(),
                dumps.0,
                dumps.1
            );
        }
    }
    if let Some(p) = &json_path {
        let body = format!(
            "{{\n  \"version\": 2,\n  \"n\": {n},\n  \"rows\": [\n{}\n  ],\n  \"ablations\": [\n{}\n  ]\n}}\n",
            json_rows.join(",\n"),
            json_ablations.join(",\n")
        );
        if let Err(e) = std::fs::write(p, body) {
            eprintln!("cannot write bench snapshot {}: {e}", p.display());
            return ExitCode::FAILURE;
        }
        println!("bench snapshot written to {}", p.display());
    }
    ExitCode::SUCCESS
}

/// One tool's cell group as a JSON object. Timings are nanoseconds;
/// `scripts/compare_bench.py` gates `codegen_ns` only as the CLooG/CG+
/// ratio, while `lines`, `dynamic_cost` and `instances` are deterministic
/// and must match the committed baseline exactly.
fn json_report(r: &bench_harness::ToolReport) -> String {
    format!(
        "{{\"lines\": {}, \"codegen_ns\": {}, \"compile_ns\": {}, \"dynamic_cost\": {}, \"instances\": {}}}",
        r.lines,
        r.codegen_time.as_nanos(),
        r.compile_time.as_nanos(),
        r.dynamic_cost,
        r.instances
    )
}
