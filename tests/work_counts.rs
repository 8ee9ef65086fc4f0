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
    ("gemv", "cgplus", [313, 94, 72, 16, 117, 196, 14, 9, 19]),
    ("gemv", "cloog", [226, 34, 60, 13, 104, 122, 15, 0, 0]),
    ("qr", "cgplus", [294, 49, 37, 2, 192, 102, 14, 10, 15]),
    ("qr", "cloog", [313, 51, 67, 0, 163, 150, 32, 0, 0]),
    (
        "swim",
        "cgplus",
        [7226, 2703, 896, 263, 3352, 3874, 12, 125, 369],
    ),
    (
        "swim",
        "cloog",
        [8003, 1385, 811, 250, 5534, 2469, 23, 0, 0],
    ),
    ("gemm", "cgplus", [1384, 433, 391, 73, 393, 991, 94, 23, 33]),
    (
        "gemm",
        "cloog",
        [6428, 1320, 1408, 560, 2615, 3813, 525, 0, 0],
    ),
    ("lu", "cgplus", [2168, 592, 441, 1, 867, 1301, 267, 34, 62]),
    ("lu", "cloog", [4411, 913, 679, 0, 2012, 2399, 807, 0, 0]),
];

/// The same in a debug build, where the solver's `debug_assert!`s (the
/// hull's containment check among them) ask sat queries of their own.
const DEBUG: &Table = &[
    ("gemv", "cgplus", [337, 95, 72, 16, 138, 199, 16, 9, 19]),
    ("gemv", "cloog", [226, 34, 60, 13, 104, 122, 15, 0, 0]),
    ("qr", "cgplus", [306, 49, 37, 2, 204, 102, 14, 10, 15]),
    ("qr", "cloog", [313, 51, 67, 0, 163, 150, 32, 0, 0]),
    (
        "swim",
        "cgplus",
        [8708, 2849, 952, 263, 4621, 4087, 23, 125, 369],
    ),
    (
        "swim",
        "cloog",
        [8003, 1385, 811, 250, 5534, 2469, 23, 0, 0],
    ),
    (
        "gemm",
        "cgplus",
        [1624, 460, 397, 73, 587, 1037, 107, 23, 33],
    ),
    (
        "gemm",
        "cloog",
        [6428, 1320, 1408, 560, 2615, 3813, 525, 0, 0],
    ),
    ("lu", "cgplus", [2486, 609, 442, 1, 1132, 1354, 302, 34, 62]),
    ("lu", "cloog", [4609, 913, 684, 0, 2193, 2416, 819, 0, 0]),
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
