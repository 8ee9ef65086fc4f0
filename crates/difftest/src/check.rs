//! The differential check: one case driven through the CLooG-style
//! baseline and CodeGen+ at every overhead-removal depth, with every
//! run's execution compared against the enumeration oracle.
//!
//! Properties asserted per case:
//!
//! 1. **Oracle equality** — every generated program executes exactly the
//!    lattice points of its statement domains, in lexicographic order,
//!    same-point statements in input order. A violating instance that
//!    lies outside its domain is classified [`DiscrepancyKind::OutOfBounds`]
//!    (the signature of an off-by-one bound); anything else is a
//!    [`DiscrepancyKind::TraceMismatch`].
//! 2. **Cold/warm determinism** — each effort is generated twice in a
//!    row, the second time on the memo caches the first run filled, and
//!    both runs must render byte-identical code.
//! 3. **Monotone trade-off** — on convex stride-free cases, raising the
//!    effort must not increase the number of ifs inside loops, and full
//!    effort must lift every guard out (the §3.2.2 contract). The general
//!    case is exempt by measurement, not by choice — see
//!    [`monotone_fragment`](self) for the data.
//!
//! Generation failures are tolerated only when *every* tool and
//! configuration rejects the case (e.g. all pieces empty, or a shrunk
//! case lost a bound): that is a [`CaseOutcome::Skip`]. Tools disagreeing
//! on whether a case is generatable is itself a discrepancy.

use crate::case::DiffCase;
use cloog::Cloog;
use codegenplus::diff::{generate_for, Discrepancy, DiscrepancyKind};
use codegenplus::{CodeGenError, Generated, Statement};
use polyir::diff::first_divergence;
use polyir::TraceEntry;
use std::collections::{BTreeSet, HashSet};

/// A pluggable CodeGen+ candidate: the production path by default; tests
/// substitute deliberately broken ones to prove the harness catches them.
pub type Candidate = dyn Fn(&[Statement], usize) -> Result<Generated, CodeGenError>;

/// Checker knobs.
#[derive(Clone, Debug)]
pub struct CheckOptions {
    /// Assert the monotone code-size/overhead trade-off (default on).
    pub check_monotone: bool,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            check_monotone: true,
        }
    }
}

/// Outcome of checking one case.
#[derive(Clone, Debug)]
pub enum CaseOutcome {
    /// Every property held under every configuration.
    Pass,
    /// The case is not generatable (every tool rejected it identically).
    Skip(String),
    /// A property was violated.
    Fail(Box<Discrepancy>),
}

impl CaseOutcome {
    /// True for [`CaseOutcome::Fail`].
    pub fn is_fail(&self) -> bool {
        matches!(self, CaseOutcome::Fail(_))
    }

    /// The discrepancy, when failing.
    pub fn discrepancy(&self) -> Option<&Discrepancy> {
        match self {
            CaseOutcome::Fail(d) => Some(d),
            _ => None,
        }
    }
}

/// Checks a structured case with the production CodeGen+ path.
pub fn check_case(case: &DiffCase) -> CaseOutcome {
    check_case_with(case, &generate_for, &CheckOptions::default())
}

/// Checks a structured case with an explicit candidate and options.
pub fn check_case_with(case: &DiffCase, candidate: &Candidate, opts: &CheckOptions) -> CaseOutcome {
    check_statements(&case.statements(), &case.params, candidate, opts)
}

/// The oracle's expected execution sequence for `stmts` under `params`:
/// all in-box lattice points of the union of domains in lexicographic
/// order, same-point statements in input order.
pub fn expected_trace(stmts: &[Statement], params: &[i64]) -> Vec<TraceEntry> {
    let nv = stmts[0].domain.space().n_vars();
    let b = omega::arbitrary::BOX_BOUND + 2;
    let (lo, hi) = (vec![-b; nv], vec![b; nv]);
    let per_stmt: Vec<HashSet<Vec<i64>>> = stmts
        .iter()
        .map(|s| s.domain.enumerate(params, &lo, &hi).into_iter().collect())
        .collect();
    let all: BTreeSet<&Vec<i64>> = per_stmt.iter().flatten().collect();
    let mut out = Vec::new();
    for p in all {
        for (k, pts) in per_stmt.iter().enumerate() {
            if pts.contains(p) {
                out.push((k, p.clone()));
            }
        }
    }
    out
}

/// Checks generator-ready statements (the corpus-replay entry point: a
/// parsed [`crate::case::ReplayCase`] goes straight here).
pub fn check_statements(
    stmts: &[Statement],
    params: &[i64],
    candidate: &Candidate,
    opts: &CheckOptions,
) -> CaseOutcome {
    let nv = stmts[0].domain.space().n_vars();
    let efforts: Vec<usize> = (0..=nv).collect();

    // Generate everything first so error consistency can be judged as a
    // whole. CLooG is the reference; CodeGen+ runs every effort twice in a
    // row, so `runs` holds (first, repeat) pairs in effort order.
    let cloog = Cloog::new().statements(stmts.to_vec()).generate();
    let mut runs: Vec<(usize, Result<Generated, CodeGenError>)> = Vec::new();
    for &effort in &efforts {
        for _ in 0..2 {
            runs.push((effort, candidate(stmts, effort)));
        }
    }
    let n_err = runs.iter().filter(|(_, r)| r.is_err()).count() + usize::from(cloog.is_err());
    if n_err == runs.len() + 1 {
        // Uniformly ungeneratable (all domains empty, unbounded after
        // shrinking, ...) — not a case either tool claims to handle.
        return CaseOutcome::Skip(format!(
            "not generatable: {}",
            cloog
                .as_ref()
                .err()
                .map(|e| e.to_string())
                .unwrap_or_default()
        ));
    }
    if n_err > 0 {
        let detail = std::iter::once(("cloog".to_owned(), &cloog))
            .chain(
                runs.iter()
                    .map(|(e, r)| (format!("codegen+ effort={e}"), r)),
            )
            .map(|(name, r)| match r {
                Ok(_) => format!("{name}: ok"),
                Err(e) => format!("{name}: {e}"),
            })
            .collect::<Vec<_>>()
            .join("; ");
        return CaseOutcome::Fail(Box::new(Discrepancy::new(
            DiscrepancyKind::GenDisagreement,
            "codegen+ vs cloog",
            None,
            detail,
        )));
    }

    // Cold/warm determinism: the repeat of each effort, run on the caches
    // the first run filled, must render the same program.
    for pair in runs.chunks(2) {
        let [(effort, first), (_, repeat)] = pair else {
            unreachable!("runs come in pairs")
        };
        if first.as_ref().unwrap().to_c() != repeat.as_ref().unwrap().to_c() {
            return CaseOutcome::Fail(Box::new(Discrepancy::new(
                DiscrepancyKind::NonDeterministic,
                "codegen+",
                Some(*effort),
                "the first run and its warm-cache repeat render different code",
            )));
        }
    }

    // Oracle equality for the baseline and for each effort.
    let expected = expected_trace(stmts, params);
    if let Some(d) = diff_against_oracle(
        &expected,
        cloog.as_ref().unwrap(),
        stmts,
        params,
        "cloog",
        None,
    ) {
        return CaseOutcome::Fail(Box::new(d));
    }
    for (effort, r) in runs.iter().step_by(2) {
        if let Some(d) = diff_against_oracle(
            &expected,
            r.as_ref().unwrap(),
            stmts,
            params,
            "codegen+",
            Some(*effort),
        ) {
            return CaseOutcome::Fail(Box::new(d));
        }
    }

    // Monotone trade-off across efforts (on the first run of each).
    // Asserted only on the fragment where it is an implementation contract:
    // one statement, one conjunct, no existentials — see
    // `monotone_fragment` for why the general case is exempt.
    if opts.check_monotone && monotone_fragment(stmts) {
        let metrics: Vec<(usize, polyir::CodeMetrics)> = runs
            .iter()
            .step_by(2)
            .map(|(c, r)| (*c, r.as_ref().unwrap().metrics()))
            .collect();
        for pair in metrics.windows(2) {
            let ((ca, ma), (cb, mb)) = (&pair[0], &pair[1]);
            if mb.ifs_inside_loops > ma.ifs_inside_loops {
                return CaseOutcome::Fail(Box::new(Discrepancy::new(
                    DiscrepancyKind::NonMonotone,
                    "codegen+",
                    Some(*cb),
                    format!(
                        "ifs inside loops rose {} -> {} from effort {} to {}",
                        ma.ifs_inside_loops, mb.ifs_inside_loops, ca, cb
                    ),
                )));
            }
        }
        let (cl, ml) = metrics.last().unwrap();
        if ml.ifs_inside_loops != 0 {
            return CaseOutcome::Fail(Box::new(Discrepancy::new(
                DiscrepancyKind::NonMonotone,
                "codegen+",
                Some(*cl),
                format!(
                    "{} ifs left inside loops at full effort on a convex stride-free domain",
                    ml.ifs_inside_loops
                ),
            )));
        }
    }
    CaseOutcome::Pass
}

/// The fragment on which the §3.2.2 trade-off is a hard per-case
/// guarantee: a single statement over a single conjunct with no
/// existential variables and *unit coefficients* on every set variable.
/// There, projections stay existential-free, raising the effort can only
/// lift guards (never split or merge union pieces), so
/// `ifs_inside_loops` is non-increasing and reaches zero at full depth.
///
/// Outside this fragment the counts are *empirically* non-monotone in
/// this implementation and in the paper's own trade-off framing:
/// separating union pieces duplicates loop nests (more if *sites* while
/// each executes less), stride residues rematerialize as in-loop `mod`
/// guards after splitting, and equality guards tying loop variables on
/// merged pieces are deliberately kept where separation would blow up
/// code size. Measured over the first 8000 seeds (6100 generatable):
/// 1089 adjacent-effort rises of `ifs_inside_loops`, 333 cases keeping
/// affine in-loop guards at full effort — versus 0 violations of either
/// property among the 919 cases with one statement, one conjunct and no
/// locals. The unit-coefficient refinement comes from seed 2700
/// (committed in the corpus): a non-unit coefficient on an inner
/// variable makes the projection existential (`∃t2: 2t2 ≤ t1 ≤ -2t2`),
/// and the resulting `⌊t1/2⌋ ≥ ⌈-t1/2⌉` emptiness guard has no
/// single-conjunct complement, so overhead removal legitimately cannot
/// lift it.
fn monotone_fragment(stmts: &[Statement]) -> bool {
    stmts.len() == 1 && {
        let cs = stmts[0].domain.conjuncts();
        cs.len() == 1 && cs[0].n_locals() == 0 && {
            let space = cs[0].space();
            let vars = 1 + space.n_params()..1 + space.n_params() + space.n_vars();
            cs[0]
                .rows_raw()
                .all(|(_, row)| row[vars.clone()].iter().all(|c| c.abs() <= 1))
        }
    }
}

/// Executes `g` and diffs its trace against the oracle's expectation.
fn diff_against_oracle(
    expected: &[TraceEntry],
    g: &Generated,
    stmts: &[Statement],
    params: &[i64],
    tool: &str,
    effort: Option<usize>,
) -> Option<Discrepancy> {
    let run = match g.execute(params) {
        Ok(r) => r,
        Err(e) => {
            return Some(Discrepancy::new(
                DiscrepancyKind::ExecFailure,
                tool,
                effort,
                e.to_string(),
            ))
        }
    };
    let d = first_divergence(expected, &run.trace)?;
    // An executed instance outside its statement's domain is the
    // signature of a bound bug; classify it for one-glance triage.
    let kind = match &d.right {
        Some((k, p)) if !stmts[*k].domain.contains(params, p) => DiscrepancyKind::OutOfBounds,
        _ => DiscrepancyKind::TraceMismatch,
    };
    Some(Discrepancy::new(kind, tool, effort, d.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::gen_case;
    use omega::Set;

    #[test]
    fn first_seeds_all_pass_or_skip() {
        for seed in 0..60 {
            let case = gen_case(seed);
            let out = check_case(&case);
            assert!(
                !out.is_fail(),
                "seed {seed}: {:?}\n{case}",
                out.discrepancy()
            );
        }
    }

    #[test]
    fn known_shapes_pass() {
        for text in [
            "# difftest v1\nparams: n=6\nstmt: [n] -> { [t1,t2] : 0 <= t1 && t1 <= n && 0 <= t2 && t2 <= t1 }",
            "# difftest v1\nstmt: { [t1] : 1 <= t1 <= 17 && exists(a : t1 = 4a + 1) }",
            "# difftest v1\nstmt: { [t1] : 0 <= t1 <= 3 || 7 <= t1 <= 9 }\nstmt: { [t1] : 2 <= t1 <= 8 }",
        ] {
            let c = crate::case::parse_case(text).unwrap();
            let out = check_statements(
                &c.stmts,
                &c.params,
                &generate_for,
                &CheckOptions::default(),
            );
            assert!(!out.is_fail(), "{text}: {:?}", out.discrepancy());
        }
    }

    #[test]
    fn empty_case_is_skipped() {
        let c = crate::case::parse_case("# difftest v1\nstmt: { [t1] : 2 <= t1 <= 1 }").unwrap();
        let out = check_statements(&c.stmts, &c.params, &generate_for, &CheckOptions::default());
        assert!(matches!(out, CaseOutcome::Skip(_)), "{out:?}");
    }

    #[test]
    fn broken_candidate_is_caught_as_out_of_bounds() {
        // A candidate that widens every top-level loop by one iteration.
        let broken: &Candidate = &|stmts, effort| {
            let mut g = generate_for(stmts, effort)?;
            crate::testing::widen_first_loop(&mut g.code);
            Ok(g)
        };
        let c = crate::case::parse_case("# difftest v1\nstmt: { [t1] : 0 <= t1 <= 5 }").unwrap();
        let out = check_statements(&c.stmts, &c.params, broken, &CheckOptions::default());
        let d = out.discrepancy().expect("must fail");
        assert_eq!(d.kind, DiscrepancyKind::OutOfBounds, "{d}");
    }

    #[test]
    fn expected_trace_orders_same_point_statements_by_input_order() {
        let a = Statement::new("s0", Set::parse("{ [t1] : 0 <= t1 <= 1 }").unwrap());
        let b = Statement::new("s1", Set::parse("{ [t1] : 0 <= t1 <= 1 }").unwrap());
        let e = expected_trace(&[a, b], &[]);
        assert_eq!(
            e,
            vec![(0, vec![0]), (1, vec![0]), (0, vec![1]), (1, vec![1])]
        );
    }
}
