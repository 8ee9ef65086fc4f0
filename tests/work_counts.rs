//! Pins the solver work of one cold generation per Table 1 kernel and tool.
//!
//! The counters in `omega::stats` are process-wide, so this file holds a
//! single test: no other test in the binary can bump them between the
//! snapshots. Each (kernel, tool) pair runs sequentially after
//! `omega::reset_sat_cache()`, so the deltas are deterministic — the same
//! queries, decided by the same tiers, every run.
//!
//! A change that alters these numbers changes *how much* the solver is
//! asked or *where* questions are answered. That may be the point of the
//! change (then update the table on purpose), but a change meant to make
//! each question cheaper must leave every row untouched.

use bench_harness::statements_of;
use chill::recipes;
use cloog::Cloog;
use codegenplus::CodeGen;
use omega::stats::{self, Snapshot};

/// The pinned counts of one cold generation, in table column order.
const FIELDS: [&str; 9] = [
    "sat_queries",
    "tier0_unsat",
    "tier1_sat",
    "tier1_unsat",
    "cache_hits",
    "cache_misses",
    "exact_solves",
    "gist_hits",
    "gist_misses",
];

fn work(d: &Snapshot) -> [u64; 9] {
    [
        d.total(),
        d.tier0_unsat,
        d.tier1_sat,
        d.tier1_unsat,
        d.cache_hits,
        d.cache_misses,
        d.exact_solves(),
        d.gist_hits,
        d.gist_misses,
    ]
}

type Table = [(&'static str, &'static str, [u64; 9])];

/// `(kernel, tool, [FIELDS...])` in a release build.
const RELEASE: &Table = &[
    ("gemv", "cgplus", [276, 85, 71, 25, 91, 185, 4, 9, 19]),
    ("gemv", "cloog", [201, 36, 48, 18, 96, 105, 3, 0, 0]),
    ("qr", "cgplus", [238, 45, 36, 5, 142, 96, 10, 10, 15]),
    ("qr", "cloog", [261, 56, 58, 14, 127, 134, 6, 0, 0]),
    (
        "swim",
        "cgplus",
        [5536, 1834, 892, 263, 2535, 3001, 12, 125, 369],
    ),
    ("swim", "cloog", [6073, 1856, 460, 267, 3490, 2583, 0, 0, 0]),
    (
        "gemm",
        "cgplus",
        [1105, 275, 390, 126, 279, 826, 35, 23, 33],
    ),
    (
        "gemm",
        "cloog",
        [5220, 1540, 998, 825, 1782, 3438, 75, 0, 0],
    ),
    (
        "lu",
        "cgplus",
        [1731, 360, 438, 154, 669, 1062, 110, 34, 62],
    ),
    ("lu", "cloog", [3422, 850, 630, 376, 1389, 2033, 177, 0, 0]),
];

/// The same in a debug build, where the solver's `debug_assert!`s (the
/// hull's containment check among them) ask sat queries of their own.
const DEBUG: &Table = &[
    ("gemv", "cgplus", [288, 92, 71, 25, 96, 192, 4, 9, 19]),
    ("gemv", "cloog", [201, 36, 48, 18, 96, 105, 3, 0, 0]),
    ("qr", "cgplus", [244, 48, 36, 5, 145, 99, 10, 10, 15]),
    ("qr", "cloog", [261, 56, 58, 14, 127, 134, 6, 0, 0]),
    (
        "swim",
        "cgplus",
        [6277, 2260, 892, 263, 2850, 3427, 12, 125, 369],
    ),
    ("swim", "cloog", [6073, 1856, 460, 267, 3490, 2583, 0, 0, 0]),
    (
        "gemm",
        "cgplus",
        [1225, 389, 390, 126, 285, 940, 35, 23, 33],
    ),
    (
        "gemm",
        "cloog",
        [5220, 1540, 998, 825, 1782, 3438, 75, 0, 0],
    ),
    (
        "lu",
        "cgplus",
        [1890, 510, 438, 154, 677, 1213, 111, 34, 62],
    ),
    ("lu", "cloog", [3521, 939, 630, 376, 1399, 2122, 177, 0, 0]),
];

#[test]
fn cold_work_counts_are_pinned() {
    let mut actual = Vec::new();
    for k in recipes::all(64) {
        let stmts = statements_of(&k);
        for tool in ["cgplus", "cloog"] {
            omega::reset_sat_cache();
            let before = stats::snapshot();
            match tool {
                "cgplus" => {
                    CodeGen::new()
                        .statements(stmts.clone())
                        .generate()
                        .expect("codegen+ generates every Table 1 kernel");
                }
                _ => {
                    Cloog::new()
                        .statements(stmts.clone())
                        .generate()
                        .expect("cloog generates every Table 1 kernel");
                }
            }
            let d = stats::snapshot().delta(&before);
            assert_eq!(d.sat_degraded, 0, "{} {tool}: degraded", k.name);
            actual.push((k.name, tool, work(&d)));
        }
    }
    let table: String = actual
        .iter()
        .map(|(k, t, w)| format!("    ({k:?}, {t:?}, {w:?}),\n"))
        .collect();
    let expected = if cfg!(debug_assertions) {
        DEBUG
    } else {
        RELEASE
    };
    assert_eq!(actual.len(), expected.len(), "measured:\n{table}");
    for ((k, t, w), (ek, et, e)) in actual.iter().zip(expected) {
        assert_eq!((*k, *t), (*ek, *et), "measured:\n{table}");
        assert_eq!(w, e, "{k} {t} {FIELDS:?}; measured:\n{table}");
    }
}
