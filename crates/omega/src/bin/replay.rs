//! `omega-replay` — re-runs `.omega` query dumps standalone.
//!
//! Dumps are produced by tracing a run with query provenance enabled
//! (e.g. `table1 --trace out.json --dump-dir dumps/`, or `codegend
//! --slow-ms 0 --slow-dir dumps/`); each file is a tier-2 sat or gist query in the
//! parser's input syntax together with the verdict recorded at dump
//! time. Replaying recomputes the verdict from scratch and reports
//! whether it matches, turning any slow or degraded query found in a
//! trace into a reproducible test case.
//!
//! Usage: `omega-replay [--stats] FILE.omega [FILE.omega ...]`
//!
//! With `--stats`, each replay is
//! followed by one machine-readable JSON line with the `omega::stats`
//! counter deltas it caused — the same field names as the per-job
//! [`omega::report::QueryReport`] (which `codegend` logs and `table1
//! --json` embeds) and the `/metrics` bridge — so a slow query's
//! standalone replay diffs cleanly against its daemon report (`jq`-friendly: filter stdout lines starting with `{`).
//!
//! Exit status: 0 when every dump replays to its recorded verdict,
//! 1 on any mismatch or error.

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut show_stats = false;
    let mut files: Vec<String> = Vec::new();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--stats" => show_stats = true,
            "--help" | "-h" => {
                eprintln!("usage: omega-replay [--stats] FILE.omega [FILE.omega ...]");
                eprintln!("replays tier-2 solver query dumps and checks their recorded verdicts");
                return ExitCode::SUCCESS;
            }
            _ => files.push(a),
        }
    }
    if files.is_empty() {
        eprintln!("usage: omega-replay [--stats] FILE.omega [FILE.omega ...]");
        eprintln!("replays tier-2 solver query dumps and checks their recorded verdicts");
        return ExitCode::FAILURE;
    }
    let mut failures = 0usize;
    for arg in &files {
        let before = omega::stats::snapshot();
        match omega::provenance::replay_file(Path::new(arg)) {
            Ok(r) => {
                if r.matched {
                    println!(
                        "{arg}: {} ok (expected {}, got {})",
                        r.kind, r.expected, r.got
                    );
                } else {
                    println!(
                        "{arg}: {} MISMATCH (expected {}, got {})",
                        r.kind, r.expected, r.got
                    );
                    failures += 1;
                }
            }
            Err(e) => {
                println!("{arg}: error: {e}");
                failures += 1;
            }
        }
        if show_stats {
            let delta = omega::stats::snapshot().delta(&before);
            println!("{}", stats_json(arg, &delta));
        }
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{failures} of {} dump(s) failed", files.len());
        ExitCode::FAILURE
    }
}

/// One JSON line per replayed file: every counter delta (zeros included,
/// so files diff field-for-field) plus the derived `exact_solves`, under
/// the exact field names `QueryReport` uses.
fn stats_json(file: &str, delta: &omega::stats::Snapshot) -> String {
    let mut out = String::from("{\"event\":\"replay_stats\",\"file\":\"");
    omega::trace::escape_json(file, &mut out);
    out.push_str("\",\"counters\":{");
    for (i, (name, value)) in delta.fields().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{name}\":{value}"));
    }
    out.push_str(&format!("}},\"exact_solves\":{}}}", delta.exact_solves()));
    out
}
