//! End-to-end resilience: `CodeGen::limits` degrades soundly. At default
//! limits all five Table 1 kernels generate with an `Exact` certificate;
//! under an artificially starved governor the generated (extra-guarded)
//! code still executes exactly the requested statement instances, and the
//! output stays byte-identical from run to run and across cache states.

use bench_harness::statements_of;
use chill::recipes;
use codegenplus::{CodeGen, Statement};
use omega::{Certainty, Limits};

/// A governor tiny enough to starve any query that reaches the exact
/// solver, while leaving generation able to finish.
fn tiny() -> Limits {
    Limits {
        budget: 4,
        max_depth: 2,
        row_cap: 6,
        ..Limits::default()
    }
}

fn emit(stmts: &[Statement], limits: Limits) -> (String, Certainty) {
    let g = CodeGen::new()
        .statements(stmts.to_vec())
        .limits(limits)
        .generate()
        .unwrap();
    (g.to_c(), g.certainty)
}

/// The paper's kernels never trip the default governor: every verdict on
/// the default path is exact, and `Generated` says so.
#[test]
fn kernels_are_exact_at_default_limits() {
    for k in recipes::all(10) {
        let stmts = statements_of(&k);
        let g = CodeGen::new().statements(stmts).generate().unwrap();
        assert_eq!(
            g.certainty,
            Certainty::Exact,
            "{} degraded at default limits",
            k.name
        );
    }
}

/// Soundness of degradation end to end: code generated under a starved
/// governor may carry extra guards, but the polyir interpreter executes
/// the exact same statement trace as the default-limits code.
#[test]
fn starved_generation_executes_the_exact_trace() {
    for k in recipes::all(8) {
        let stmts = statements_of(&k);
        omega::reset_sat_cache();
        let exact = CodeGen::new().statements(stmts.clone()).generate().unwrap();
        omega::reset_sat_cache();
        let starved = CodeGen::new()
            .statements(stmts.clone())
            .limits(tiny())
            .generate()
            .unwrap();
        let ra = polyir::execute(&exact.code, &k.params).expect("exact code executes");
        let rb = polyir::execute(&starved.code, &k.params).expect("starved code executes");
        assert_eq!(
            ra.trace, rb.trace,
            "{}: starved generation changed the executed instances",
            k.name
        );
    }
}

/// Determinism survives degradation: each query spends its own budget and
/// degraded verdicts are never cached, so both the code and the certainty
/// repeat on a reset cache and on the warm cache a run leaves behind.
#[test]
fn starved_generation_is_deterministic() {
    for k in recipes::all(8) {
        let stmts = statements_of(&k);
        omega::reset_sat_cache();
        let cold = emit(&stmts, tiny());
        assert_eq!(
            cold,
            emit(&stmts, tiny()),
            "{} differs cold vs warm cache under tiny limits",
            k.name
        );
        omega::reset_sat_cache();
        assert_eq!(
            cold,
            emit(&stmts, tiny()),
            "{} differs across cache resets under tiny limits",
            k.name
        );
    }
}
