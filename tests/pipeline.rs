//! End-to-end integration across all crates: CHiLL recipes → both
//! polyhedra scanners → execution, verifying semantics and the qualitative
//! Table 1 relationships at a test-friendly problem size.

use bench_harness::{ablate, compare, generate, statements_of, traces_match, Tool};
use chill::recipes;

#[test]
fn all_kernels_roundtrip() {
    for k in recipes::all(10) {
        assert!(traces_match(&k), "trace mismatch for {}", k.name);
    }
}

#[test]
fn kernels_execute_expected_instance_counts() {
    let n = 10i64;
    let expectations: &[(&str, u64)] = &[
        ("gemv", (n * n) as u64),
        // qr: diagonal n + updates sum_{k} (n-1-k) = n + n(n-1)/2
        ("qr", (n + n * (n - 1) / 2) as u64),
        ("swim", (9 * n * n) as u64),
        ("gemm", (n * n * n) as u64),
        // lu: scaling sum_k (n-1-k) + updates sum_k (n-1-k)^2
        (
            "lu",
            ((0..n).map(|k| n - 1 - k).sum::<i64>()
                + (0..n).map(|k| (n - 1 - k) * (n - 1 - k)).sum::<i64>()) as u64,
        ),
    ];
    for k in recipes::all(n) {
        let expected = expectations
            .iter()
            .find(|(name, _)| *name == k.name)
            .unwrap()
            .1;
        let stmts = statements_of(&k);
        let (g, _) = generate(&stmts, Tool::codegenplus());
        let run = polyir::execute(&g.code, &k.params).unwrap();
        assert_eq!(
            run.counters.stmt_execs, expected,
            "{} instance count mismatch",
            k.name
        );
    }
}

#[test]
fn codegenplus_never_larger_and_never_slower_overall() {
    // The paper's qualitative claims at a small size: CodeGen+ code is at
    // most as large as the baseline's, and total dynamic cost across the
    // suite favors CodeGen+.
    let mut total_cg = 0u64;
    let mut total_cl = 0u64;
    for k in recipes::all(12) {
        let row = compare(&k);
        assert!(
            row.cgplus.lines <= row.cloog.lines,
            "{}: CodeGen+ {} lines vs baseline {}",
            k.name,
            row.cgplus.lines,
            row.cloog.lines
        );
        assert_eq!(row.cgplus.instances, row.cloog.instances, "{}", k.name);
        total_cg += row.cgplus.dynamic_cost;
        total_cl += row.cloog.dynamic_cost;
    }
    assert!(
        total_cg <= total_cl * 101 / 100,
        "suite dynamic cost: CodeGen+ {total_cg} vs baseline {total_cl}"
    );
}

#[test]
fn gemm_reduction_is_largest_of_tiled_kernels() {
    // Table 1 shape: the tiled/unrolled kernels show the biggest gains.
    let rows: Vec<_> = recipes::all(12).iter().map(compare).collect();
    let get = |name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .unwrap()
            .loc_reduction()
    };
    assert!(
        get("gemm") > get("gemv"),
        "gemm {} vs gemv {}",
        get("gemm"),
        get("gemv")
    );
    assert!(get("gemm") > get("qr"));
    assert!(get("lu") > get("gemv"));
}

#[test]
fn effort_zero_is_smallest_code() {
    for k in recipes::all(10) {
        let at = |effort| {
            ablate(
                &k,
                Tool::CodeGenPlus {
                    effort,
                    merge_ifs: true,
                },
            )
        };
        let ((g0, a0), (g1, a1)) = (at(0), at(1));
        assert!(
            a0.lines <= a1.lines,
            "{}: depth-0 {} vs depth-1 {}",
            k.name,
            a0.lines,
            a1.lines
        );
        // Figure 7's trade-off: depth 1's extra code buys lower loop
        // overhead in the compiled code.
        assert!(
            a1.dynamic_cost <= a0.dynamic_cost,
            "{}: depth-1 cost {} vs depth-0 {}",
            k.name,
            a1.dynamic_cost,
            a0.dynamic_cost
        );
        // And identical semantics.
        assert_eq!(
            polyir::execute(&g0.code, &k.params).unwrap().trace,
            polyir::execute(&g1.code, &k.params).unwrap().trace,
            "{}",
            k.name
        );
    }
}

#[test]
fn merge_ifs_ablation_preserves_semantics() {
    for k in recipes::all(9) {
        let (with, merged) = ablate(&k, Tool::codegenplus());
        let (without, unmerged) = ablate(
            &k,
            Tool::CodeGenPlus {
                effort: 1,
                merge_ifs: false,
            },
        );
        assert_eq!(
            polyir::execute(&with.code, &k.params).unwrap().trace,
            polyir::execute(&without.code, &k.params).unwrap().trace,
            "{}",
            k.name
        );
        // Merging should never increase the if count.
        assert!(
            with.code.count_ifs() <= without.code.count_ifs(),
            "{}: merged {} ifs vs unmerged {}",
            k.name,
            with.code.count_ifs(),
            without.code.count_ifs()
        );
        // And never costs more at run time once compiled.
        assert!(
            merged.dynamic_cost <= unmerged.dynamic_cost,
            "{}: merged cost {} vs unmerged {}",
            k.name,
            merged.dynamic_cost,
            unmerged.dynamic_cost
        );
    }
}

#[test]
fn extra_workloads_roundtrip() {
    // The beyond-Table-1 recipes (wavefront jacobi, triangular syrk) pass
    // the same dual-tool oracle.
    for k in [chill::recipes::jacobi(7), chill::recipes::syrk(10)] {
        assert!(traces_match(&k), "trace mismatch for {}", k.name);
        let row = compare(&k);
        assert_eq!(row.cgplus.instances, row.cloog.instances, "{}", k.name);
        assert!(row.cgplus.lines <= row.cloog.lines + 5, "{}", k.name);
    }
}
