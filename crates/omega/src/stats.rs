//! Satisfiability-pipeline instrumentation.
//!
//! The tiered solver (the private `sat` module) reports which tier answered each
//! query and how the tier-2 memo cache behaved. Each probe is one relaxed
//! atomic increment, always compiled in.

/// Records `n` events against the named counter. Used as
/// `bump!(cache_hits)` or `bump!(evictions, n)`.
macro_rules! bump {
    ($field:ident) => {
        $crate::stats::bump!($field, 1u64)
    };
    ($field:ident, $n:expr) => {{
        $crate::stats::COUNTERS
            .$field
            .fetch_add($n as u64, ::std::sync::atomic::Ordering::Relaxed);
    }};
}
pub(crate) use bump;

use std::sync::atomic::{AtomicU64, Ordering};

/// The single source of truth for the counter list: generates
/// [`Counters`], the [`COUNTERS`] static, [`Snapshot`], [`snapshot`],
/// [`reset`], and `Snapshot`'s `Display` from one field list, so a new
/// counter cannot drift out of one of the (previously hand-written)
/// copies.
macro_rules! define_counters {
    ($($field:ident: $doc:literal),+ $(,)?) => {
        /// Live counters for the satisfiability pipeline.
        #[derive(Debug, Default)]
        pub struct Counters {
            $(#[doc = $doc] pub $field: AtomicU64,)+
        }

        /// The process-wide counter instance the `bump!` probes target.
        pub static COUNTERS: Counters = Counters {
            $($field: AtomicU64::new(0),)+
        };

        /// A point-in-time copy of [`COUNTERS`].
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct Snapshot {
            $(#[doc = $doc] pub $field: u64,)+
        }

        /// Reads all counters.
        ///
        /// Loads are **relaxed and per-field**: while other threads
        /// (concurrent daemon jobs) are still bumping counters, a snapshot is not an atomic
        /// cross-field cut — one field can reflect an event whose
        /// sibling field does not yet (e.g. a tier verdict counted
        /// before its cache miss). Derived quantities clamp
        /// accordingly (see [`Snapshot::exact_solves`]). Snapshots
        /// are exact once the threads that bump counters are quiet.
        pub fn snapshot() -> Snapshot {
            Snapshot {
                $($field: COUNTERS.$field.load(Ordering::Relaxed),)+
            }
        }

        /// Zeroes all counters.
        pub fn reset() {
            $(COUNTERS.$field.store(0, Ordering::Relaxed);)+
        }

        impl Snapshot {
            /// Field-wise difference `self - earlier`, saturating at 0
            /// per field (relaxed per-field loads mean a later snapshot
            /// can transiently trail an earlier one on a still-bumping
            /// field; a delta must not wrap because of it).
            pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
                Snapshot {
                    $($field: self.$field.saturating_sub(earlier.$field),)+
                }
            }

            /// `(name, value)` pairs for every counter field, in
            /// declaration order — the single iteration point for
            /// exporters (JSON reports, metrics bridges) so a new
            /// counter shows up everywhere without per-site edits.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
                [$((stringify!($field), self.$field),)+].into_iter()
            }
        }

        impl std::fmt::Display for Snapshot {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                $(write!(f, concat!(stringify!($field), " {} | "), self.$field)?;)+
                write!(f, "fast-path {:.1}%", 100.0 * self.fast_path_rate())
            }
        }
    };
}

define_counters! {
    tier0_unsat: "Queries answered unsatisfiable by tier 0 (syntactic checks).",
    tier1_unsat: "Queries answered unsatisfiable by tier 1 (interval propagation).",
    tier1_sat: "Queries answered satisfiable by tier 1's witness probe.",
    cache_hits: "Tier-2 memo-cache hits.",
    cache_misses: "Tier-2 memo-cache misses (each one runs the tiered pipeline).",
    evictions: "Entries evicted from the memo cache by second-chance sweeps.",
    gist_hits: "Gist memo-cache hits.",
    gist_misses: "Gist memo-cache misses (each one runs the full gist pipeline).",
    sat_degraded: "Sat queries that hit a resource limit and degraded to the conservative \"satisfiable\" answer (never cached).",
    gist_degraded: "Gist computations built on degraded implication answers (sound, but excluded from the gist memo cache).",
    degrade_overflow: "Degradations caused by a coefficient leaving the i64 range (OmegaError::Overflow).",
    degrade_budget: "Degradations caused by Limits::budget exhaustion (OmegaError::BudgetExhausted).",
    degrade_depth: "Degradations caused by exceeding Limits::max_depth (OmegaError::DepthExceeded).",
    degrade_rowcap: "Degradations caused by exceeding Limits::row_cap (OmegaError::RowCapExceeded).",
    degrade_deadline: "Degradations caused by the Limits::deadline wall-clock firing (OmegaError::DeadlineExceeded).",
    par_batches: "Always 0: every generation runs on its calling thread, so nothing fans out. Kept so existing readers of the counter set keep working.",
    par_tasks: "Always 0 (see par_batches).",
    par_steals: "Always 0 (see par_batches).",
}

impl Snapshot {
    /// Total queries that reached the pipeline past the trivial cases.
    /// Every such query probes the cache exactly once, so this is the
    /// hit + miss sum; tier verdicts are subsets of the misses.
    pub fn total(&self) -> u64 {
        self.cache_hits + self.cache_misses
    }

    /// Queries that ran the exact Omega test: cache misses not settled
    /// by tier 0 or tier 1.
    ///
    /// The tier sum is clamped to `cache_misses` before subtracting:
    /// under the relaxed per-field loads of [`snapshot`] a tier
    /// counter can race ahead of the cache counter it is a subset of,
    /// and an unclamped difference would wrap (or saturate to a
    /// misleading 0 while the true value is small but nonzero).
    pub fn exact_solves(&self) -> u64 {
        let tiered = (self.tier0_unsat + self.tier1_unsat + self.tier1_sat).min(self.cache_misses);
        self.cache_misses - tiered
    }

    /// Fraction of queries answered without running the exact solver.
    /// Returns 0.0 when no queries were recorded (consistent with the
    /// clamping in [`Snapshot::exact_solves`]: derived quantities
    /// never invent work that the base counters do not support).
    pub fn fast_path_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        // exact_solves <= cache_misses <= total, so this cannot wrap.
        (total - self.exact_solves()) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_solves_clamps_racing_tier_counters() {
        // Tier counters ahead of the cache-miss counter (a transient
        // relaxed-load artifact): the clamp keeps the result at 0
        // instead of wrapping.
        let s = Snapshot {
            tier0_unsat: 5,
            tier1_unsat: 4,
            tier1_sat: 3,
            cache_misses: 7,
            ..Snapshot::default()
        };
        assert_eq!(s.exact_solves(), 0);
        // Consistent counters subtract exactly.
        let s = Snapshot {
            tier0_unsat: 2,
            tier1_unsat: 1,
            tier1_sat: 1,
            cache_misses: 7,
            ..Snapshot::default()
        };
        assert_eq!(s.exact_solves(), 3);
    }

    #[test]
    fn fast_path_rate_is_zero_when_empty_and_bounded_otherwise() {
        assert_eq!(Snapshot::default().fast_path_rate(), 0.0);
        let s = Snapshot {
            cache_hits: 90,
            cache_misses: 10,
            tier0_unsat: 6,
            tier1_unsat: 2,
            tier1_sat: 1,
            ..Snapshot::default()
        };
        let r = s.fast_path_rate();
        assert!((0.0..=1.0).contains(&r));
        assert!((r - 0.99).abs() < 1e-9);
        // Even racing counters keep the rate in [0, 1].
        let s = Snapshot {
            cache_hits: 1,
            cache_misses: 1,
            tier0_unsat: 100,
            ..Snapshot::default()
        };
        assert!((0.0..=1.0).contains(&s.fast_path_rate()));
    }

    #[test]
    fn display_lists_every_field() {
        let text = Snapshot::default().to_string();
        for field in [
            "tier0_unsat",
            "tier1_unsat",
            "tier1_sat",
            "cache_hits",
            "cache_misses",
            "evictions",
            "gist_hits",
            "gist_misses",
            "sat_degraded",
            "gist_degraded",
            "degrade_overflow",
            "degrade_budget",
            "degrade_depth",
            "degrade_rowcap",
            "degrade_deadline",
            "par_batches",
            "par_tasks",
            "par_steals",
            "fast-path",
        ] {
            assert!(text.contains(field), "Display missing {field}: {text}");
        }
    }
}
