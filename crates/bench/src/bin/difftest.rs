//! The CI fuzz lane: drive seeded random iteration spaces through the
//! CLooG baseline and CodeGen+ at every effort (each run twice, cold
//! then warm), check every run against the `polyir` enumeration oracle,
//! and on the first discrepancy shrink to a minimal reproducer with full
//! artifacts.
//!
//! Usage:
//!   difftest [--seeds N] [--start S] [--time-budget DUR] [--minimize]
//!            [--out DIR] [--replay FILE.difftest]
//!
//! * `--seeds N`       check seeds `S .. S+N` (default 1000)
//! * `--start S`       first seed (default 0)
//! * `--time-budget D` stop early after D (`90s`, `20m`, `1h`, or bare
//!   seconds); with a budget the seed count is a cap, not a target
//! * `--minimize`      shrink a failing case before writing artifacts
//! * `--out DIR`       artifact directory (default `difftest-out`)
//! * `--replay FILE`   check one committed `.difftest` case instead of
//!   fuzzing (reproduces a CI failure locally)
//!
//! Exit status: 0 = no discrepancy, 1 = discrepancy found (artifacts
//! written), 2 = usage or I/O error.
//!
//! On failure the tool writes into `--out`:
//! * `case-<seed>.difftest`       the original failing case
//! * `case-<seed>.min.difftest`   the shrunk reproducer (with `--minimize`)
//! * `queries/*.omega`            omega-replay dumps of every tier-2
//!   solver query of one cold-cache CodeGen+ run of the (minimized)
//!   case at the failing configuration

use codegenplus::diff::{codegen_for, GenConfig};
use difftest::{check_case, parse_case, shrink, CaseOutcome, DiffCase};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn parse_duration(s: &str) -> Option<Duration> {
    let (num, mult) = match s.as_bytes().last()? {
        b's' => (&s[..s.len() - 1], 1),
        b'm' => (&s[..s.len() - 1], 60),
        b'h' => (&s[..s.len() - 1], 3600),
        _ => (s, 1),
    };
    num.parse::<u64>()
        .ok()
        .map(|v| Duration::from_secs(v * mult))
}

fn main() -> ExitCode {
    let mut seeds: u64 = 1000;
    let mut start: u64 = 0;
    let mut budget: Option<Duration> = None;
    let mut minimize = false;
    let mut out = PathBuf::from("difftest-out");
    let mut replay: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |flag: &str| {
            args.next().ok_or_else(|| {
                eprintln!("{flag} requires an argument");
            })
        };
        match a.as_str() {
            "--seeds" => match val("--seeds").map(|v| v.parse::<u64>()) {
                Ok(Ok(v)) => seeds = v,
                _ => return ExitCode::from(2),
            },
            "--start" => match val("--start").map(|v| v.parse::<u64>()) {
                Ok(Ok(v)) => start = v,
                _ => return ExitCode::from(2),
            },
            "--time-budget" => match val("--time-budget").map(|v| parse_duration(&v)) {
                Ok(Some(d)) => budget = Some(d),
                _ => {
                    eprintln!("--time-budget takes e.g. 90s, 20m, 1h");
                    return ExitCode::from(2);
                }
            },
            "--minimize" => minimize = true,
            "--out" => match val("--out") {
                Ok(p) => out = PathBuf::from(p),
                Err(()) => return ExitCode::from(2),
            },
            "--replay" => match val("--replay") {
                Ok(p) => replay = Some(PathBuf::from(p)),
                Err(()) => return ExitCode::from(2),
            },
            other => {
                eprintln!("unknown argument {other}");
                return ExitCode::from(2);
            }
        }
    }

    if let Some(path) = replay {
        return replay_one(&path);
    }

    let t0 = Instant::now();
    let (mut pass, mut skip) = (0u64, 0u64);
    let mut checked = 0u64;
    // With a time budget the seed count is open-ended, so CI logs get a
    // periodic heartbeat instead of the every-500-seeds progress line.
    let beat_every = Duration::from_secs(10);
    let mut next_beat = beat_every;
    for seed in start..start.saturating_add(seeds) {
        if let Some(b) = budget {
            if t0.elapsed() >= b {
                println!("time budget exhausted after {checked} seeds");
                break;
            }
        }
        let (case, outcome) = difftest::fuzz_one(seed);
        checked += 1;
        match outcome {
            CaseOutcome::Pass => pass += 1,
            CaseOutcome::Skip(_) => skip += 1,
            CaseOutcome::Fail(d) => {
                println!("seed {seed}: DISCREPANCY {d}");
                println!("{case}");
                return match write_artifacts(&out, seed, &case, minimize) {
                    Ok(()) => ExitCode::FAILURE,
                    Err(e) => {
                        eprintln!("cannot write artifacts to {}: {e}", out.display());
                        ExitCode::from(2)
                    }
                };
            }
        }
        if let Some(b) = budget {
            if t0.elapsed() >= next_beat {
                println!(
                    "heartbeat: {checked} seeds done ({pass} pass, {skip} skip), {:.1?} elapsed of {:.0?} budget",
                    t0.elapsed(),
                    b
                );
                next_beat = t0.elapsed() + beat_every;
            }
        } else if checked.is_multiple_of(500) {
            println!(
                "{checked} seeds in {:.1?}: {pass} pass, {skip} skip",
                t0.elapsed()
            );
        }
    }
    println!(
        "clean: {checked} seeds in {:.1?} ({pass} pass, {skip} skip, 0 discrepancies)",
        t0.elapsed()
    );
    ExitCode::SUCCESS
}

fn replay_one(path: &Path) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    let case = match parse_case(&text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot parse {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    let outcome = difftest::check_statements(
        &case.stmts,
        &case.params,
        &codegenplus::diff::generate_for,
        &difftest::CheckOptions::default(),
    );
    match outcome {
        CaseOutcome::Pass => {
            println!("{}: pass", path.display());
            ExitCode::SUCCESS
        }
        CaseOutcome::Skip(why) => {
            println!("{}: skipped ({why})", path.display());
            ExitCode::SUCCESS
        }
        CaseOutcome::Fail(d) => {
            println!("{}: DISCREPANCY {d}", path.display());
            ExitCode::FAILURE
        }
    }
}

/// Writes the failing case, its minimized form, and an omega-replay dump
/// of the solver queries behind one cold-cache generation of it.
fn write_artifacts(out: &Path, seed: u64, case: &DiffCase, minimize: bool) -> std::io::Result<()> {
    std::fs::create_dir_all(out)?;
    std::fs::write(out.join(format!("case-{seed}.difftest")), case.render())?;
    let final_case = if minimize {
        let original_kind = check_case(case).discrepancy().map(|d| d.kind);
        let still_fails =
            |c: &DiffCase| check_case(c).discrepancy().map(|d| d.kind) == original_kind;
        let min = shrink(case, &still_fails);
        println!(
            "minimized from {} statements / {} constraints to {} / {}:\n{min}",
            case.stmts.len(),
            case.n_constraints(),
            min.stmts.len(),
            min.n_constraints()
        );
        std::fs::write(out.join(format!("case-{seed}.min.difftest")), min.render())?;
        min
    } else {
        case.clone()
    };

    // Provenance: replayable dumps of every tier-2 query behind one
    // cold-cache CodeGen+ run of the reproducer at the failing config.
    let cfg = check_case(&final_case)
        .discrepancy()
        .and_then(|d| d.config)
        .unwrap_or(GenConfig { effort: 1 });
    let qdir = out.join("queries");
    std::fs::create_dir_all(&qdir)?;
    omega::reset_sat_cache();
    let collector = omega::trace::Collector::new();
    collector.dump_queries(&qdir);
    let _ = codegen_for(&final_case.statements(), &cfg)
        .trace(collector.clone())
        .generate();
    let n = std::fs::read_dir(&qdir)?.count();
    println!(
        "artifacts in {}: case-{seed}.difftest{} and {n} .omega query dumps",
        out.display(),
        if minimize {
            format!(", case-{seed}.min.difftest")
        } else {
            String::new()
        }
    );
    Ok(())
}
