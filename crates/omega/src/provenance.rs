//! Replayable query provenance: tier-2 sat/gist queries dumped as `.omega`
//! text files that round-trip through the parser, so any slow or degraded
//! query found in a trace becomes a standalone, reproducible test case.
//!
//! # File format (`omega-replay v1`)
//!
//! A dump is UTF-8 text. Lines starting with `#` are comments except for
//! the directive lines below; blank lines are ignored.
//!
//! ```text
//! # omega-replay v1
//! # kind: sat
//! # expect: unsat
//! set: [n] -> { [x1,x2] : ... }
//! ```
//!
//! A sat dump replays by parsing `set:` and testing emptiness. A gist
//! dump carries three sets:
//!
//! ```text
//! # omega-replay v1
//! # kind: gist
//! a: { [i] : ... }
//! ctx: { [i] : ... }
//! expect: { [i] : ... }
//! ```
//!
//! and replays by recomputing `gist(a, ctx)` and comparing it with the
//! recorded result *modulo the context* — `gist` only promises
//! `gist(a,ctx) ∧ ctx = a ∧ ctx`, and representation-level differences
//! introduced by the parse round-trip can legitimately change which of
//! two mutually redundant rows survives.
//!
//! Dumps are produced automatically when a [`crate::trace::Collector`]
//! with [`crate::trace::Collector::buffer_queries`] enabled is installed,
//! written out with [`crate::trace::Collector::write_buffered_dumps`]
//! (see `table1 --dump-dir`), and replayed with the `omega-replay` binary
//! or [`replay_str`] / [`replay_file`].

use crate::conjunct::{Conjunct, Row};
use crate::set::Set;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// What kind of query a dump records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DumpKind {
    /// A tier-2 satisfiability query (`expect: sat|unsat`).
    Sat,
    /// A tier-2 (uncached) gist computation.
    Gist,
}

impl fmt::Display for DumpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DumpKind::Sat => "sat",
            DumpKind::Gist => "gist",
        })
    }
}

/// The outcome of replaying one dump.
#[derive(Clone, Debug)]
pub struct Replayed {
    /// The dump's kind.
    pub kind: DumpKind,
    /// The verdict recorded at dump time (`sat`/`unsat`, or a set).
    pub expected: String,
    /// The verdict recomputed by the replay.
    pub got: String,
    /// True when the replayed verdict matches the recorded one.
    pub matched: bool,
}

/// Why a dump could not be replayed.
#[derive(Debug)]
pub enum ReplayError {
    /// Reading the dump file failed.
    Io(io::Error),
    /// The dump text is not a valid `omega-replay v1` document.
    Malformed(String),
    /// A set line failed to parse.
    Parse(crate::ParseSetError),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Io(e) => write!(f, "io error: {e}"),
            ReplayError::Malformed(m) => write!(f, "malformed dump: {m}"),
            ReplayError::Parse(e) => write!(f, "parse error: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<io::Error> for ReplayError {
    fn from(e: io::Error) -> ReplayError {
        ReplayError::Io(e)
    }
}

impl From<crate::ParseSetError> for ReplayError {
    fn from(e: crate::ParseSetError) -> ReplayError {
        ReplayError::Parse(e)
    }
}

// ---------------------------------------------------------------------------
// Dump rendering
// ---------------------------------------------------------------------------

/// Renders a tier-2 sat query (raw solver rows over `n_vars` existential
/// columns) as a replayable dump. The rows become set variables
/// `x1..xn` — satisfiability of the rows is exactly non-emptiness of the
/// parsed set. `verdict` is `None` for a degraded query (the governor
/// answered conservatively): the dump records `expect: unknown`, which
/// replays without a pass/fail judgement.
pub(crate) fn sat_dump_text(rows: &[Row], n_vars: usize, verdict: Option<bool>) -> String {
    let names: Vec<String> = (1..=n_vars).map(|i| format!("x{i}")).collect();
    let mut cons: Vec<String> = Vec::new();
    for r in rows {
        if r.is_constant() {
            continue;
        }
        cons.push(render_row(r, &names));
    }
    if cons.is_empty() {
        cons.push("0 = 0".to_owned());
    }
    format!(
        "# omega-replay v1\n# kind: sat\n# expect: {}\nset: {{ [{}] : {} }}\n",
        match verdict {
            Some(true) => "sat",
            Some(false) => "unsat",
            None => "unknown",
        },
        names.join(","),
        cons.join(" && "),
    )
}

/// Renders one solver row (`[const, x1..xn]`) in the parser's syntax.
fn render_row(r: &Row, names: &[String]) -> String {
    let mut s = String::new();
    let mut any = false;
    for (v, name) in names.iter().enumerate() {
        let c = r.c[1 + v];
        if c == 0 {
            continue;
        }
        if any {
            s.push_str(if c > 0 { " + " } else { " - " });
            let a = c.abs();
            if a != 1 {
                s.push_str(&format!("{a}*"));
            }
            s.push_str(name);
        } else {
            any = true;
            if c == 1 {
                s.push_str(name);
            } else {
                s.push_str(&format!("{c}*{name}"));
            }
        }
    }
    let c0 = r.c[0];
    if !any {
        s.push_str(&c0.to_string());
    } else if c0 > 0 {
        s.push_str(&format!(" + {c0}"));
    } else if c0 < 0 {
        s.push_str(&format!(" - {}", -c0));
    }
    match r.kind {
        crate::linexpr::ConstraintKind::Eq => format!("{s} = 0"),
        crate::linexpr::ConstraintKind::Geq => format!("{s} >= 0"),
    }
}

/// Renders a tier-2 gist computation as a replayable dump.
pub(crate) fn gist_dump_text(a: &Conjunct, ctx: &Conjunct, result: &Conjunct) -> String {
    let a = Set::from_conjunct(a.clone());
    let ctx = Set::from_conjunct(ctx.clone());
    let result = Set::from_conjunct(result.clone());
    format!(
        "# omega-replay v1\n# kind: gist\na: {}\nctx: {}\nexpect: {}\n",
        a.to_input_syntax(),
        ctx.to_input_syntax(),
        result.to_input_syntax(),
    )
}

/// Writes `text` as `<dir>/<stem>.omega`, creating `dir` if needed, and
/// returns the path.
pub(crate) fn write_dump(dir: &Path, stem: &str, text: &str) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{stem}.omega"));
    fs::write(&path, text)?;
    Ok(path)
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// Replays a dump document, recomputing its verdict from scratch.
///
/// # Errors
///
/// Returns a [`ReplayError`] when the document is malformed or a set line
/// fails to parse.
pub fn replay_str(text: &str) -> Result<Replayed, ReplayError> {
    let mut kind: Option<DumpKind> = None;
    let mut expect_sat: Option<&str> = None;
    let mut set_line: Option<&str> = None;
    let mut a_line: Option<&str> = None;
    let mut ctx_line: Option<&str> = None;
    let mut expect_line: Option<&str> = None;
    let mut versioned = false;
    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim();
            if rest.starts_with("omega-replay") {
                if rest != "omega-replay v1" {
                    return Err(ReplayError::Malformed(format!(
                        "unsupported version line: {rest}"
                    )));
                }
                versioned = true;
            } else if let Some(k) = rest.strip_prefix("kind:") {
                kind = Some(match k.trim() {
                    "sat" => DumpKind::Sat,
                    "gist" => DumpKind::Gist,
                    other => return Err(ReplayError::Malformed(format!("unknown kind: {other}"))),
                });
            } else if let Some(e) = rest.strip_prefix("expect:") {
                expect_sat = Some(e.trim());
            }
            // Other comment lines are free-form.
            continue;
        }
        if let Some(v) = line.strip_prefix("set:") {
            set_line = Some(v.trim());
        } else if let Some(v) = line.strip_prefix("a:") {
            a_line = Some(v.trim());
        } else if let Some(v) = line.strip_prefix("ctx:") {
            ctx_line = Some(v.trim());
        } else if let Some(v) = line.strip_prefix("expect:") {
            expect_line = Some(v.trim());
        } else {
            return Err(ReplayError::Malformed(format!("unrecognized line: {line}")));
        }
    }
    if !versioned {
        return Err(ReplayError::Malformed(
            "missing '# omega-replay v1' header".to_owned(),
        ));
    }
    match kind {
        Some(DumpKind::Sat) => {
            let expected = expect_sat
                .ok_or_else(|| ReplayError::Malformed("sat dump missing '# expect:'".into()))?;
            if expected != "sat" && expected != "unsat" && expected != "unknown" {
                return Err(ReplayError::Malformed(format!(
                    "sat dump expects 'sat', 'unsat' or 'unknown', got '{expected}'"
                )));
            }
            let set = Set::parse(
                set_line.ok_or_else(|| ReplayError::Malformed("sat dump missing 'set:'".into()))?,
            )?;
            let got = if set.is_empty() { "unsat" } else { "sat" };
            Ok(Replayed {
                kind: DumpKind::Sat,
                expected: expected.to_owned(),
                got: got.to_owned(),
                // A degraded dump carries no verdict to check against —
                // replaying it just reproduces the computation.
                matched: expected == "unknown" || got == expected,
            })
        }
        Some(DumpKind::Gist) => {
            let a = Set::parse(
                a_line.ok_or_else(|| ReplayError::Malformed("gist dump missing 'a:'".into()))?,
            )?;
            let ctx = Set::parse(
                ctx_line
                    .ok_or_else(|| ReplayError::Malformed("gist dump missing 'ctx:'".into()))?,
            )?;
            let expected =
                Set::parse(expect_line.ok_or_else(|| {
                    ReplayError::Malformed("gist dump missing 'expect:'".into())
                })?)?;
            let recomputed = a.gist(&ctx);
            // Compare modulo the context: that is the property `gist`
            // actually promises (see module docs). The subset test is
            // undecidable for some existential constraint groups (their
            // complement is not a finite union of conjuncts); an
            // undecidable direction cannot refute the replay, so it
            // counts as a match rather than an error.
            let lhs = recomputed.intersect(&ctx);
            let rhs = expected.intersect(&ctx);
            let matched =
                lhs.try_is_subset(&rhs).unwrap_or(true) && rhs.try_is_subset(&lhs).unwrap_or(true);
            Ok(Replayed {
                kind: DumpKind::Gist,
                expected: expected.to_input_syntax(),
                got: recomputed.to_input_syntax(),
                matched,
            })
        }
        None => Err(ReplayError::Malformed("missing '# kind:' line".to_owned())),
    }
}

/// Replays a dump file (see [`replay_str`]).
///
/// # Errors
///
/// Propagates I/O errors reading `path` plus every [`replay_str`] error.
pub fn replay_file(path: &Path) -> Result<Replayed, ReplayError> {
    replay_str(&fs::read_to_string(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linexpr::ConstraintKind;

    fn geq(c: &[i64]) -> Row {
        Row::new(ConstraintKind::Geq, c.to_vec())
    }
    fn eq(c: &[i64]) -> Row {
        Row::new(ConstraintKind::Eq, c.to_vec())
    }

    #[test]
    fn sat_dump_round_trips_sat() {
        // 0 <= x <= 10: satisfiable.
        let rows = vec![geq(&[0, 1]), geq(&[10, -1])];
        let text = sat_dump_text(&rows, 1, Some(true));
        let r = replay_str(&text).expect("replay");
        assert_eq!(r.kind, DumpKind::Sat);
        assert!(r.matched, "expected {}, got {}", r.expected, r.got);
    }

    #[test]
    fn sat_dump_round_trips_unsat() {
        // Pugh's dark-shadow example: rationally feasible, no integer point.
        let rows = vec![
            geq(&[-27, 11, 13]),
            geq(&[45, -11, -13]),
            geq(&[10, 7, -9]),
            geq(&[4, -7, 9]),
        ];
        let text = sat_dump_text(&rows, 2, Some(false));
        assert!(text.contains("# expect: unsat"));
        let r = replay_str(&text).expect("replay");
        assert!(r.matched, "expected {}, got {}", r.expected, r.got);
    }

    #[test]
    fn sat_dump_with_equalities() {
        // 3x + 5y = 1 has integer solutions.
        let rows = vec![eq(&[-1, 3, 5])];
        let r = replay_str(&sat_dump_text(&rows, 2, Some(true))).expect("replay");
        assert!(r.matched);
        // 6x + 9y = 1 does not.
        let rows = vec![eq(&[-1, 6, 9])];
        let r = replay_str(&sat_dump_text(&rows, 2, Some(false))).expect("replay");
        assert!(r.matched);
    }

    #[test]
    fn mismatched_verdict_is_reported() {
        let rows = vec![geq(&[0, 1]), geq(&[10, -1])];
        let text = sat_dump_text(&rows, 1, Some(false)); // wrong on purpose
        let r = replay_str(&text).expect("replay");
        assert!(!r.matched);
        assert_eq!(r.expected, "unsat");
        assert_eq!(r.got, "sat");
    }

    #[test]
    fn gist_dump_round_trips() {
        let a = Set::parse("[n] -> { [i] : 0 <= i < n && i >= 2 }").unwrap();
        let ctx = Set::parse("[n] -> { [i] : 0 <= i < n }").unwrap();
        let g = a.gist(&ctx);
        let text = gist_dump_text(
            a.as_single_conjunct().unwrap(),
            ctx.as_single_conjunct().unwrap(),
            g.as_single_conjunct().unwrap(),
        );
        let r = replay_str(&text).expect("replay");
        assert_eq!(r.kind, DumpKind::Gist);
        assert!(r.matched, "expected {}, got {}", r.expected, r.got);
    }

    #[test]
    fn malformed_dumps_error() {
        assert!(matches!(
            replay_str("set: { [x] : x >= 0 }"),
            Err(ReplayError::Malformed(_))
        ));
        assert!(matches!(
            replay_str("# omega-replay v1\nset: { [x] : x >= 0 }"),
            Err(ReplayError::Malformed(_))
        ));
        assert!(matches!(
            replay_str("# omega-replay v1\n# kind: sat\n# expect: sat\nset: not a set"),
            Err(ReplayError::Parse(_))
        ));
    }
}
