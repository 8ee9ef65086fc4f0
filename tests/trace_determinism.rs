//! The observability layer's determinism contract: the *shape* of a
//! recorded span tree (names, attributes, nesting, canonical order — not
//! timestamps or thread ids) is a pure function of the work performed, so
//! two runs of the same generation produce identical trace shapes the
//! same way they produce byte-identical ASTs.
//!
//! The cache caveat: a cold-cache trace legitimately differs from a warm
//! one (a memo hit replaces the per-query tiers and the tier-2 solves), so
//! shape comparisons run against a warm solver cache, where every query
//! answers at the `cache` tier deterministically.

use bench_harness::gcc::scratch_dir;
use bench_harness::statements_of;
use chill::recipes;
use codegenplus::CodeGen;
use omega::trace::{Collector, Trace};
use proptest::prelude::*;

fn traced_generate(stmts: &[codegenplus::Statement]) -> (String, Trace) {
    let collector = Collector::new();
    let g = CodeGen::new()
        .statements(stmts.to_vec())
        .trace(collector.clone())
        .generate()
        .unwrap();
    (g.to_c(), collector.finish())
}

#[test]
fn warm_traced_runs_have_equal_shapes_and_code() {
    for k in recipes::all(8) {
        let stmts = statements_of(&k);
        // Warm the process-wide solver caches so every traced query below
        // answers at the cache tier.
        CodeGen::new()
            .statements(stmts.to_vec())
            .generate()
            .unwrap();
        let (code1, t1) = traced_generate(&stmts);
        let (code2, t2) = traced_generate(&stmts);
        assert_eq!(code1, code2, "{}: generated code must not differ", k.name);
        assert_eq!(
            t1.shape(),
            t2.shape(),
            "{}: trace shape differs between two warm runs",
            k.name
        );
    }
}

#[test]
fn traces_are_well_formed_and_spans_accounted() {
    let k = &recipes::all(10)[0];
    let stmts = statements_of(k);
    let (_, trace) = traced_generate(&stmts);
    assert!(trace.is_well_formed(), "intervals must nest LIFO");
    assert!(trace.count_named("cg_generate") == 1);
    assert!(trace.count_named("cg_prepare") == 1);
    assert!(trace.count_named("cg_lower") == 1);
    // Every span's children lie inside it, so their times fit in its own.
    trace.walk(&mut |s| {
        let child_total: u64 = s.children.iter().map(|c| c.duration_ns()).sum();
        assert!(child_total <= s.duration_ns());
    });
}

#[test]
fn chrome_export_is_balanced() {
    let k = &recipes::all(8)[2];
    let stmts = statements_of(k);
    let (_, trace) = traced_generate(&stmts);
    let mut buf = Vec::new();
    trace.write_chrome_json(&mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let b = text.matches("\"ph\":\"B\"").count();
    let e = text.matches("\"ph\":\"E\"").count();
    assert_eq!(b, e, "unbalanced B/E events");
    assert_eq!(b, trace.len(), "one B event per span");
}

#[test]
fn dumped_queries_replay_to_recorded_verdicts() {
    let dir = scratch_dir("cgplus-trace-dumps");
    let collector = Collector::new();
    collector.buffer_queries();
    let k = &recipes::all(8)[0];
    let stmts = statements_of(k);
    omega::reset_sat_cache();
    CodeGen::new()
        .statements(stmts)
        .trace(collector.clone())
        .generate()
        .unwrap();
    let (written, dropped) = collector.write_buffered_dumps(&dir).unwrap();
    println!("{written} dumps written, {dropped} dropped past the buffer cap");
    assert_eq!(dropped, 0, "one small kernel fits the dump buffer");
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("dump dir created")
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    assert!(
        !entries.is_empty(),
        "a cold-cache generation must dump tier-2 queries"
    );
    for path in &entries {
        let r = omega::provenance::replay_file(path).expect("dump must parse");
        assert!(
            r.matched,
            "{}: replayed to {} but dump recorded {}",
            path.display(),
            r.got,
            r.expected
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Random workloads drive the span machinery through arbitrary nesting
/// patterns; the harvested forest must be interval-well-formed (children
/// nested inside parents, LIFO close) and shape-deterministic from run to
/// run.
fn arb_workload() -> impl Strategy<Value = (u8, Vec<(i64, i64, Option<i64>)>)> {
    (
        1u8..4,
        prop::collection::vec(
            (0i64..6, 6i64..12, prop::option::weighted(0.5, 2i64..5)),
            1..4,
        ),
    )
}

// All statements of one workload share a dimensionality (CodeGen requires
// a common scanning space).
fn domain_text(dims: u8, lo: i64, hi: i64, stride: Option<i64>) -> String {
    let vars: Vec<String> = (0..dims).map(|i| format!("x{i}")).collect();
    let mut cons: Vec<String> = vars
        .iter()
        .map(|v| format!("{lo} <= {v} && {v} <= {hi}"))
        .collect();
    if let Some(m) = stride {
        cons.push(format!("exists(a : x0 = {m}a)"));
    }
    format!("{{ [{}] : {} }}", vars.join(","), cons.join(" && "))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn random_workload_traces_are_well_formed((dims, specs) in arb_workload()) {
        let stmts: Vec<codegenplus::Statement> = specs
            .iter()
            .enumerate()
            .map(|(i, &(lo, hi, stride))| {
                let d = domain_text(dims, lo, hi, stride);
                codegenplus::Statement::new(format!("s{i}"), omega::Set::parse(&d).unwrap())
            })
            .collect();
        // Warm cache for the run-to-run shape comparison.
        CodeGen::new().statements(stmts.clone()).generate().unwrap();
        let (_, t1) = traced_generate(&stmts);
        let (_, t2) = traced_generate(&stmts);
        prop_assert!(t1.is_well_formed());
        prop_assert!(t2.is_well_formed());
        prop_assert_eq!(t1.shape(), t2.shape());
    }
}
