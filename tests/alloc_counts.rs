//! Pins the heap allocations of one Table 1 pass per tool, cold and warm.
//!
//! A counting global allocator counts every `alloc`, `alloc_zeroed` and
//! `realloc` made on the measuring thread. One pass generates the five
//! Table 1 kernels at n = 64 with one tool at its default options; the
//! statements are built before counting starts. A *cold* pass resets the
//! solver caches before each generation, as a one-shot compiler run sees
//! them; a *warm* pass runs right after a pass that primed the caches, as
//! an autotuner or the daemon sees repeats. Both are counted after one
//! untimed priming pass, so lazy statics are already built.
//!
//! The counts are deterministic: the same questions, cache hits and set
//! operations every run. The test fails when a count rises more than
//! [`SLACK`] above its pin, and prints all four counts either way. It is
//! skipped in debug builds, where `debug_assert!`s allocate on their own.
//!
//! This file holds a single test, so no other test's allocations or cache
//! resets land between its snapshots.

use bench_harness::{generate, statements_of, Tool};
use chill::recipes;
use codegenplus::Statement;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` fails only while this thread's locals are torn down.
    let _ = COUNT.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// How far a count may rise above its pin before the test fails.
const SLACK: f64 = 0.10;

/// `(tool, cache, allocations per pass)` in a release build.
const PINNED: [(&str, &str, u64); 4] = [
    ("cgplus", "cold", 32_922),
    ("cgplus", "warm", 22_328),
    ("cloog", "cold", 55_428),
    ("cloog", "warm", 47_642),
];

/// Generates every kernel once with `tool`, resetting the solver caches
/// before each generation when `cold`, and returns the allocations made.
fn pass(kernels: &[Vec<Statement>], tool: Tool, cold: bool) -> u64 {
    let before = COUNT.with(Cell::get);
    for stmts in kernels {
        if cold {
            omega::reset_sat_cache();
        }
        generate(stmts, tool);
    }
    COUNT.with(Cell::get) - before
}

#[test]
fn table1_pass_allocations_are_pinned() {
    if cfg!(debug_assertions) {
        eprintln!("skipped: debug assertions allocate; run with --release");
        return;
    }
    let kernels: Vec<Vec<Statement>> = recipes::all(64).iter().map(statements_of).collect();
    let mut measured = Vec::new();
    for (name, tool) in [("cgplus", Tool::codegenplus()), ("cloog", Tool::cloog())] {
        omega::reset_sat_cache();
        pass(&kernels, tool, false);
        measured.push((name, "cold", pass(&kernels, tool, true)));
        // The cold pass left only the last kernel's answers cached.
        pass(&kernels, tool, false);
        measured.push((name, "warm", pass(&kernels, tool, false)));
    }
    let table: String = measured
        .iter()
        .map(|(tool, cache, n)| format!("    ({tool:?}, {cache:?}, {n}),\n"))
        .collect();
    println!("allocations per Table 1 pass:\n{table}");
    for ((tool, cache, n), (pt, pc, pin)) in measured.iter().zip(PINNED) {
        assert_eq!((*tool, *cache), (pt, pc));
        let limit = (pin as f64 * (1.0 + SLACK)).floor() as u64;
        assert!(
            *n <= limit,
            "{tool} {cache}: {n} allocations per pass, pinned {pin} (limit {limit}); measured:\n{table}"
        );
    }
}
