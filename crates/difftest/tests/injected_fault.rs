//! End-to-end harness validation: inject the classic lift/lower
//! off-by-one (every generated program's first loop widened by one
//! iteration), prove the differential pipeline catches it, and prove the
//! shrinker minimizes the reproducer to a readable case.

use codegenplus::diff::{generate_for, DiscrepancyKind};
use difftest::check::{check_case_with, Candidate, CaseOutcome, CheckOptions};
use difftest::{gen_case, parse_case, shrink};

/// The broken scanner: real CodeGen+ output with its first loop's upper
/// bound bumped by one — the bug a sign slip in bound arithmetic makes.
fn broken() -> Box<Candidate> {
    Box::new(|stmts, effort| {
        let mut g = generate_for(stmts, effort)?;
        difftest::testing::widen_first_loop(&mut g.code);
        Ok(g)
    })
}

#[test]
fn injected_off_by_one_is_caught_and_minimized() {
    let opts = CheckOptions::default();
    let fails = |c: &difftest::DiffCase| {
        matches!(
            check_case_with(c, &*broken(), &opts),
            CaseOutcome::Fail(d) if d.kind == DiscrepancyKind::OutOfBounds
        )
    };

    // Find a generated case the injected bug breaks. The very first seeds
    // suffice: almost any non-empty case executes the widened iteration.
    let case = (0..50)
        .map(gen_case)
        .find(|c| fails(c))
        .expect("injected off-by-one must break an early seed");

    // Shrink against the same predicate; the minimized case must still
    // reproduce and must be tiny: one statement, at most 3 constraints
    // (a 1-D interval plus slack is all an off-by-one needs).
    let min = shrink(&case, &fails);
    assert!(fails(&min), "shrunk case no longer reproduces:\n{min}");
    assert_eq!(min.stmts.len(), 1, "more than one statement left:\n{min}");
    assert!(
        min.n_constraints() <= 3,
        "expected <= 3 constraints, got {}:\n{min}",
        min.n_constraints()
    );

    // The reproducer must survive the corpus round-trip: render, parse,
    // re-check, same verdict.
    let replay = parse_case(&min.render()).expect("minimized case must parse");
    let out = difftest::check_statements(&replay.stmts, &replay.params, &*broken(), &opts);
    assert!(
        matches!(out.discrepancy(), Some(d) if d.kind == DiscrepancyKind::OutOfBounds),
        "replayed case lost the failure: {out:?}"
    );
}

#[test]
fn unbroken_pipeline_passes_where_broken_fails() {
    // Control: the same seeds checked with the production path never
    // produce the OutOfBounds the injection produces.
    let opts = CheckOptions::default();
    for seed in 0..10 {
        let case = gen_case(seed);
        let out = check_case_with(&case, &generate_for, &opts);
        assert!(!out.is_fail(), "seed {seed}: {:?}", out.discrepancy());
    }
}

#[test]
fn output_that_changes_on_the_warm_repeat_is_nondeterministic() {
    // A candidate whose second call renders different code, as a cache
    // that served a wrong warm answer would.
    let calls = std::sync::atomic::AtomicUsize::new(0);
    let flaky = move |stmts: &[codegenplus::Statement], effort: usize| {
        let mut g = generate_for(stmts, effort)?;
        if calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed) == 1 {
            difftest::testing::widen_first_loop(&mut g.code);
        }
        Ok(g)
    };
    let case = parse_case("# difftest v1\nstmt: { [t1] : 0 <= t1 <= 5 }").unwrap();
    let out =
        difftest::check_statements(&case.stmts, &case.params, &flaky, &CheckOptions::default());
    let d = out.discrepancy().expect("the changed repeat must fail");
    assert_eq!(d.kind, DiscrepancyKind::NonDeterministic, "{d}");
    assert_eq!(d.effort, Some(0), "{d}");
    assert!(d.to_string().contains("cold/warm nondeterminism"), "{d}");
}
