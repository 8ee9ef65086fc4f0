//! Ordered fork/join parallelism: the one parallel primitive of the
//! workspace.
//!
//! [`map_ordered`] fans out the scanner's independent subtrees and
//! statements. It runs on scoped worker threads with an **ordered join**:
//! results are collected by input index, so every consumer sees exactly
//! the sequence the sequential loop would have produced — byte-identical
//! output at every thread count. Solver queries never fan out: each one
//! runs on the thread that asks it.
//!
//! The thread budget is a *policy*, not a parameter: callers deep in the
//! scanner never know how many threads the embedding application wants.
//! `CodeGen::generate` (or any other driver) installs one budget per run
//! with [`with_threads`]; the default is sequential, so plain library use
//! stays on the calling thread unless a driver opts in. Every thread that
//! takes part in a parallel fan-out — the calling thread included — runs
//! its items under the sequential budget, so a fan-out nested inside
//! another runs inline and one run never uses more than its budget.
//!
//! Scheduling is dynamic (participants claim the next unstarted item from
//! a shared counter — cheap work stealing off a single deque), which only
//! affects *when* an item runs, never what it computes or where its result
//! lands. Tracing is covered on [`map_ordered`].

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::stats::bump;

thread_local! {
    /// How many threads a fan-out that starts outside every other fan-out
    /// may use. `1` runs inline on the calling thread.
    static THREADS: Cell<usize> = const { Cell::new(1) };
}

/// The thread budget currently installed on this thread.
fn threads() -> usize {
    THREADS.with(Cell::get)
}

/// Resolves a requested thread count: `0` means "the machine's available
/// parallelism", probed **once per process** so every run agrees on the
/// same resolved value (and so telemetry can report it).
pub fn resolve_threads(n: usize) -> usize {
    static AVAILABLE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    if n == 0 {
        *AVAILABLE.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    } else {
        n
    }
}

/// Runs `f` with a budget of `threads` (clamped to at least 1) installed,
/// restoring the previous budget afterwards — including on unwind, so a
/// panicking run cannot leak its policy into the next one.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREADS.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(THREADS.with(|c| c.replace(threads.max(1))));
    f()
}

/// Ordered parallel map over independent pass-level work items.
///
/// Semantically identical to `items.into_iter().map(f).collect()`; with an
/// installed budget of more than one thread and more than one item, items
/// are claimed dynamically by scoped workers (the calling thread
/// participates, so no thread outlives the call). Workers re-establish the
/// caller's [`crate::limits`] scope and trace fork context, and any
/// degradation they observe is unioned back commutatively — the resulting
/// certificate does not depend on the interleaving.
///
/// Tracing: the whole call runs under one `par_map` span and each item
/// under a `par_item` span carrying its input index, on both the
/// sequential and the parallel path. Workers record into the calling
/// thread's collector via a captured fork context; at
/// [`crate::trace::Collector::finish`] their subtrees are stitched under
/// this call's `par_map` span and ordered by the `index` attribute — so
/// the merged trace *shape* is identical for every thread count.
pub fn map_ordered<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let _map_span = crate::span!(par_map, items = items.len());
    let n = items.len();
    let item = |i: usize, t: T| {
        let _span = crate::span!(par_item, index = i);
        f(t)
    };
    let threads = threads().min(n);
    if threads <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| item(i, t))
            .collect();
    }
    bump!(par_batches);
    bump!(par_tasks, n as u64);
    let limits = crate::limits::current();
    let fork = crate::trace::fork_context();
    let observed: Mutex<crate::DegradeReasons> = Mutex::new(crate::DegradeReasons::default());
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let items: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let submitter = std::thread::current().id();
    let run = || {
        let ((), reasons) = crate::limits::with_limits(limits, || {
            with_threads(1, || {
                crate::trace::in_fork(fork.clone(), || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    if std::thread::current().id() != submitter {
                        bump!(par_steals);
                    }
                    let t = items[i]
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .take()
                        .expect("item claimed twice");
                    let r = item(i, t);
                    *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
                })
            })
        });
        let reasons = reasons.reasons();
        if !reasons.is_empty() {
            let mut obs = observed.lock().unwrap_or_else(|e| e.into_inner());
            *obs = obs.union(reasons);
        }
    };
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(run);
        }
        run();
    });
    crate::limits::note_reasons(observed.into_inner().unwrap_or_else(|e| e.into_inner()));
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("worker skipped a slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_sequential() {
        assert_eq!(threads(), 1);
    }

    #[test]
    fn zero_resolves_to_available_parallelism() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn policy_scopes_nest_and_restore() {
        with_threads(4, || {
            assert_eq!(threads(), 4);
            with_threads(2, || assert_eq!(threads(), 2));
            assert_eq!(threads(), 4);
        });
        assert_eq!(threads(), 1);
        // Clamped to at least one worker (the calling thread).
        with_threads(0, || assert_eq!(threads(), 1));
    }

    #[test]
    fn matches_sequential_at_every_budget() {
        let expect: Vec<i64> = (0..97).map(|x| x * 3 - 5).collect();
        for n in [1, 2, 4, 8] {
            let out = with_threads(n, || {
                map_ordered((0..97).collect::<Vec<i64>>(), |x| x * 3 - 5)
            });
            assert_eq!(out, expect, "budget {n}");
        }
    }

    #[test]
    fn empty_and_single() {
        with_threads(8, || {
            assert_eq!(map_ordered(Vec::<i32>::new(), |x| x), Vec::<i32>::new());
            assert_eq!(map_ordered(vec![7], |x| x + 1), vec![8]);
        });
    }

    #[test]
    fn nested_fan_outs_never_multiply_the_budget() {
        use std::collections::HashSet;
        use std::sync::atomic::AtomicUsize;
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        let (live, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        // The bound holds at any interleaving; the sleep only keeps items
        // overlapping so that a fan-out nested on a worker, if it spawned,
        // would show up as extra threads.
        let work = || {
            seen.lock().unwrap().insert(std::thread::current().id());
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(1));
            live.fetch_sub(1, Ordering::SeqCst);
        };
        with_threads(4, || {
            map_ordered((0..8).collect::<Vec<_>>(), |_| {
                map_ordered((0..8).collect::<Vec<_>>(), |_| {
                    map_ordered((0..8).collect::<Vec<_>>(), |_| work())
                })
            })
        });
        assert!(seen.lock().unwrap().len() <= 4, "{:?}", seen);
        assert!(peak.load(Ordering::SeqCst) <= 4);
        // Nesting only runs inline inside a parallel fan-out: the caller's
        // budget is back in force afterwards.
        with_threads(4, || {
            map_ordered(vec![0, 1], |_| assert_eq!(threads(), 1));
            assert_eq!(threads(), 4);
        });
    }

    #[test]
    fn worker_degradations_reach_the_callers_scope() {
        let ((), cert) = crate::limits::with_limits(crate::Limits::default(), || {
            with_threads(4, || {
                map_ordered(vec![0, 1, 2, 3], |i| {
                    if i == 2 {
                        crate::limits::note(crate::OmegaError::Overflow);
                    }
                    i
                });
            })
        });
        assert!(cert.reasons().contains(crate::OmegaError::Overflow));
    }
}
