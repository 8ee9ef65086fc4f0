//! Edge cases both scanners must handle gracefully: zero-dimensional
//! spaces, parameter-only guards, single points, known contexts, deep
//! strides, negative coordinates, and loops whose hull has no single bound.

use cloog::Cloog;
use codegenplus::{CodeGen, Statement};
use omega::Set;

fn cg(domains: &[&str]) -> codegenplus::Generated {
    let stmts: Vec<Statement> = domains
        .iter()
        .enumerate()
        .map(|(i, d)| Statement::new(format!("s{i}"), Set::parse(d).unwrap()))
        .collect();
    CodeGen::new().statements(stmts).generate().unwrap()
}

fn cl(domains: &[&str]) -> codegenplus::Generated {
    let stmts: Vec<Statement> = domains
        .iter()
        .enumerate()
        .map(|(i, d)| Statement::new(format!("s{i}"), Set::parse(d).unwrap()))
        .collect();
    Cloog::new().statements(stmts).generate().unwrap()
}

#[test]
fn zero_dimensional_statement() {
    // A statement with no loops at all, guarded by a parameter condition.
    for g in [
        cg(&["[n] -> { [] : n >= 4 }"]),
        cl(&["[n] -> { [] : n >= 4 }"]),
    ] {
        let yes = polyir::execute(&g.code, &[5]).unwrap();
        assert_eq!(yes.trace, vec![(0, vec![])]);
        let no = polyir::execute(&g.code, &[3]).unwrap();
        assert!(no.trace.is_empty());
    }
}

#[test]
fn single_point_domain() {
    for g in [
        cg(&["{ [i,j] : i = 3 && j = -2 }"]),
        cl(&["{ [i,j] : i = 3 && j = -2 }"]),
    ] {
        let run = polyir::execute(&g.code, &[]).unwrap();
        assert_eq!(run.trace, vec![(0, vec![3, -2])]);
    }
}

#[test]
fn fully_negative_coordinates() {
    let d = "{ [i] : -9 <= i <= -3 && exists(a : i = 2a + 1) }";
    for g in [cg(&[d]), cl(&[d])] {
        let run = polyir::execute(&g.code, &[]).unwrap();
        let xs: Vec<i64> = run.trace.iter().map(|(_, a)| a[0]).collect();
        assert_eq!(
            xs,
            vec![-9, -7, -5, -3],
            "{}",
            polyir::to_c(&g.code, &g.names)
        );
    }
}

#[test]
fn large_stride_with_offset() {
    let d = "{ [i] : 0 <= i <= 100 && exists(a : i = 17a + 5) }";
    for g in [cg(&[d]), cl(&[d])] {
        let run = polyir::execute(&g.code, &[]).unwrap();
        let xs: Vec<i64> = run.trace.iter().map(|(_, a)| a[0]).collect();
        assert_eq!(xs, vec![5, 22, 39, 56, 73, 90]);
    }
}

#[test]
fn known_context_respected_by_both() {
    let known = Set::parse("[n] -> { [i] : n >= 10 }").unwrap().conjuncts()[0].clone();
    let d = Set::parse("[n] -> { [i] : 0 <= i < n && n >= 10 }").unwrap();
    let a = CodeGen::new()
        .statement(Statement::new("s0", d.clone()))
        .known(known.clone())
        .generate()
        .unwrap();
    assert_eq!(a.code.count_ifs(), 0, "{}", polyir::to_c(&a.code, &a.names));
    let b = Cloog::new()
        .statement(Statement::new("s0", d))
        .known(known)
        .generate()
        .unwrap();
    // The baseline also runs (its context handling is syntactic, so a
    // redundant guard may remain, but semantics hold).
    assert_eq!(
        polyir::execute(&a.code, &[12]).unwrap().trace,
        polyir::execute(&b.code, &[12]).unwrap().trace
    );
}

#[test]
fn equal_statements_share_everything() {
    let d = "[n] -> { [i,j] : 0 <= i < n && 0 <= j < n }";
    let g = cg(&[d, d, d]);
    // One shared loop nest, three calls, no ifs.
    assert_eq!(
        g.code.count_loops(),
        2,
        "{}",
        polyir::to_c(&g.code, &g.names)
    );
    assert_eq!(g.code.count_ifs(), 0);
    let run = polyir::execute(&g.code, &[3]).unwrap();
    assert_eq!(run.trace.len(), 27);
    // Statement order preserved at each point.
    let ids: Vec<usize> = run.trace.iter().take(3).map(|(k, _)| *k).collect();
    assert_eq!(ids, vec![0, 1, 2]);
}

#[test]
fn many_way_disjoint_split() {
    let domains: Vec<String> = (0..6)
        .map(|k| format!("{{ [i] : {} <= i <= {} }}", 10 * k, 10 * k + 4))
        .collect();
    let refs: Vec<&str> = domains.iter().map(String::as_str).collect();
    for g in [cg(&refs), cl(&refs)] {
        let run = polyir::execute(&g.code, &[]).unwrap();
        assert_eq!(run.trace.len(), 30);
        // Strictly increasing coordinates across the whole trace.
        let xs: Vec<i64> = run.trace.iter().map(|(_, a)| a[0]).collect();
        assert!(xs.windows(2).all(|w| w[0] < w[1]), "{xs:?}");
    }
}

#[test]
fn guard_only_parameter_difference() {
    // Identical ranges, different parameter guards: if/else chain expected
    // from CodeGen+, flat guards from the baseline, same semantics.
    let domains = [
        "[p,q] -> { [i] : 0 <= i <= 9 && p >= 1 }",
        "[p,q] -> { [i] : 0 <= i <= 9 && p <= 0 }",
        "[p,q] -> { [i] : 0 <= i <= 9 && q >= 1 }",
    ];
    let a = cg(&domains);
    let b = cl(&domains);
    for (p, q) in [(0i64, 0i64), (0, 5), (3, 0), (2, 2)] {
        assert_eq!(
            polyir::execute(&a.code, &[p, q]).unwrap().trace,
            polyir::execute(&b.code, &[p, q]).unwrap().trace,
            "p={p} q={q}"
        );
    }
}

/// CodeGen+ at effort 0 (no overhead removal: every statement shares one
/// loop per level) over `domains`, checked against the oracle at each
/// parameter value; returns the rendered code.
fn cg_effort0_matches_oracle(domains: &[&str], ns: &[i64]) -> String {
    let stmts: Vec<Statement> = domains
        .iter()
        .enumerate()
        .map(|(i, d)| Statement::new(format!("s{i}"), Set::parse(d).unwrap()))
        .collect();
    let g = CodeGen::new()
        .effort(0)
        .statements(stmts.clone())
        .generate()
        .unwrap();
    let c = polyir::to_c(&g.code, &g.names);
    assert_eq!(g.certainty, omega::Certainty::Exact, "{c}");
    for &n in ns {
        assert_eq!(
            polyir::execute(&g.code, &[n]).unwrap().trace,
            difftest::check::expected_trace(&stmts, &[n]),
            "n={n}\n{c}"
        );
    }
    c
}

#[test]
fn hull_without_a_single_upper_bound_falls_back_to_max() {
    // The hull of `i <= n-1` and `i <= 8` has no single upper bound on
    // `i`, so the loop runs to the max of the per-piece bounds.
    let c = cg_effort0_matches_oracle(
        &[
            "[n] -> { [i] : 0 <= i <= n-1 }",
            "[n] -> { [i] : 0 <= i <= 8 }",
        ],
        &[-1, 0, 5, 8, 9, 10, 15],
    );
    assert!(c.contains("t1<=max(n-1,8)"), "{c}");
}

#[test]
fn hull_without_a_single_lower_bound_falls_back_to_min() {
    // Mirror image: `i >= n` and `i >= 9` leave the hull no single lower
    // bound, so the loop starts at the min of the per-piece bounds.
    let c = cg_effort0_matches_oracle(
        &[
            "[n] -> { [i] : n <= i <= 20 }",
            "[n] -> { [i] : 9 <= i <= 20 }",
        ],
        &[-1, 0, 5, 8, 9, 10, 15, 21],
    );
    assert!(c.contains("t1=min(n,9)"), "{c}");
}
