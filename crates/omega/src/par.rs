//! Ordered fork/join parallelism: the one parallel primitive of the
//! workspace.
//!
//! Two kinds of fan-out share it. *Pass-level* fan-outs ([`map_ordered`])
//! are the scanner's independent subtrees and statements; *solver-level*
//! task batches (`map_tasks`) are [`crate::Set::gist`]'s per-conjunct
//! gists, [`crate::Set::hull`]'s candidate chunks and the splinter loop of
//! the exact Omega test. Both run on scoped worker threads with an
//! **ordered join**: results are collected by input index, so every
//! consumer sees exactly the sequence the sequential loop would have
//! produced — byte-identical output at every thread count.
//!
//! The thread budget is a *policy*, not a parameter: callers deep in the
//! scanner or the solver never know how many threads the embedding
//! application wants. `CodeGen::generate` (or any other driver) installs
//! one [`Budget`] per run with [`with_budget`]; the default is sequential,
//! so plain library use stays on the calling thread unless a driver opts
//! in. Every thread that takes part in a parallel fan-out — the calling
//! thread included — runs its items under the sequential budget, so a
//! fan-out nested inside another runs inline. One run therefore never
//! uses more than `max(threads, intra)` threads at once; the two budgets
//! never multiply.
//!
//! Scheduling is dynamic (participants claim the next unstarted item from
//! a shared counter — cheap work stealing off a single deque), which only
//! affects *when* an item runs, never what it computes or where its result
//! lands. Tracing is covered per kind below.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::stats::bump;

/// The thread budget of one run: how many threads a fan-out that starts
/// outside every other fan-out may use. `1` runs inline on the calling
/// thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Budget {
    /// Threads for pass-level fan-outs ([`map_ordered`]).
    pub threads: usize,
    /// Threads for solver-level task batches inside one query.
    pub intra: usize,
}

impl Budget {
    /// Everything inline on the calling thread; the default.
    pub const SEQUENTIAL: Budget = Budget {
        threads: 1,
        intra: 1,
    };
}

thread_local! {
    static BUDGET: Cell<Budget> = const { Cell::new(Budget::SEQUENTIAL) };
}

/// The budget currently installed on this thread.
pub(crate) fn budget() -> Budget {
    BUDGET.with(Cell::get)
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

/// Runs `f` with `budget` installed (each share clamped to at least 1),
/// restoring the previous budget afterwards — including on unwind, so a
/// panicking query cannot leak its policy into the next one.
pub fn with_budget<R>(budget: Budget, f: impl FnOnce() -> R) -> R {
    struct Restore(Budget);
    impl Drop for Restore {
        fn drop(&mut self) {
            BUDGET.with(|c| c.set(self.0));
        }
    }
    let clamped = Budget {
        threads: budget.threads.max(1),
        intra: budget.intra.max(1),
    };
    let _restore = Restore(BUDGET.with(|c| c.replace(clamped)));
    f()
}

/// Which kind of fan-out a call is: it picks the budget share and the
/// trace spans.
#[derive(Clone, Copy)]
enum Kind {
    Pass,
    Task,
}

/// Ordered parallel map over independent pass-level work items.
///
/// Semantically identical to `items.into_iter().map(f).collect()`; with an
/// installed [`Budget::threads`] > 1 and more than one item, items are
/// claimed dynamically by scoped workers (the calling thread participates,
/// so no thread outlives the call).
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
    fork_join(Kind::Pass, budget().threads, items, f)
}

/// Ordered parallel map over one query's independent solver tasks, under
/// the installed [`Budget::intra`] share.
///
/// Each task runs under a `par_task` span carrying its input index as a
/// `task` attribute — deliberately *not* `index`, which the collector's
/// canonicalization reserves for stitched `par_item` spans. With a trace
/// collector attached the batch runs sequentially: a cache-miss race
/// between workers can compute (and emit a detached root span for) the
/// same query twice, so parallel trace shapes would not be reproducible.
/// Generated *code* is thread-count invariant either way.
pub(crate) fn map_tasks<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = if crate::trace::current().is_some() {
        1
    } else {
        budget().intra
    };
    fork_join(Kind::Task, threads, items, f)
}

/// The shared fork/join. Worker threads re-establish the caller's
/// [`crate::limits`] scope and trace fork context, and any degradation
/// they observe is unioned back commutatively — the resulting certificate
/// does not depend on the interleaving.
fn fork_join<T, R, F>(kind: Kind, threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let item = |i: usize, t: T| {
        let _span = match kind {
            Kind::Pass => crate::span!(par_item, index = i),
            Kind::Task => crate::span!(par_task, task = i),
        };
        f(t)
    };
    let threads = threads.min(n);
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
            with_budget(Budget::SEQUENTIAL, || {
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

    fn uniform(n: usize) -> Budget {
        Budget {
            threads: n,
            intra: n,
        }
    }

    #[test]
    fn default_budget_is_sequential() {
        assert_eq!(budget(), Budget::SEQUENTIAL);
    }

    #[test]
    fn zero_resolves_to_available_parallelism() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn policy_scopes_nest_and_restore() {
        with_budget(uniform(4), || {
            assert_eq!(budget(), uniform(4));
            with_budget(uniform(2), || assert_eq!(budget(), uniform(2)));
            assert_eq!(budget(), uniform(4));
        });
        assert_eq!(budget(), Budget::SEQUENTIAL);
        // Clamped to at least one worker (the calling thread).
        with_budget(uniform(0), || assert_eq!(budget(), Budget::SEQUENTIAL));
    }

    #[test]
    fn both_kinds_match_sequential_at_every_budget() {
        let expect: Vec<i64> = (0..97).map(|x| x * 3 - 5).collect();
        for n in [1, 2, 4, 8] {
            let out = with_budget(uniform(n), || {
                (
                    map_ordered((0..97).collect::<Vec<i64>>(), |x| x * 3 - 5),
                    map_tasks((0..97).collect::<Vec<i64>>(), |x| x * 3 - 5),
                )
            });
            assert_eq!(out, (expect.clone(), expect.clone()), "budget {n}");
        }
    }

    #[test]
    fn empty_and_single() {
        with_budget(uniform(8), || {
            assert_eq!(map_ordered(Vec::<i32>::new(), |x| x), Vec::<i32>::new());
            assert_eq!(map_tasks(vec![7], |x| x + 1), vec![8]);
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
        with_budget(uniform(4), || {
            map_ordered((0..8).collect::<Vec<_>>(), |_| {
                map_ordered((0..8).collect::<Vec<_>>(), |_| {
                    map_tasks((0..8).collect::<Vec<_>>(), |_| work())
                })
            })
        });
        assert!(seen.lock().unwrap().len() <= 4, "{:?}", seen);
        assert!(peak.load(Ordering::SeqCst) <= 4);
        // Nesting only runs inline inside a parallel fan-out: the caller's
        // budget is back in force afterwards.
        with_budget(uniform(4), || {
            map_ordered(vec![0, 1], |_| assert_eq!(budget(), Budget::SEQUENTIAL));
            assert_eq!(budget(), uniform(4));
        });
    }

    #[test]
    fn worker_degradations_reach_the_callers_scope() {
        let ((), cert) = crate::limits::with_limits(crate::Limits::default(), || {
            with_budget(uniform(4), || {
                map_tasks(vec![0, 1, 2, 3], |i| {
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
