//! Deterministic fault injection for the solver's degradation paths,
//! compiled in only with the `faults` cargo feature.
//!
//! Every failure mode of [`crate::limits::OmegaError`] has a graceful
//! degradation path that is nearly impossible to reach with realistic
//! inputs. This harness forces each one on demand: after
//! [`inject_after`]`(n, fault)`, the Nth counted solver operation of every
//! exact (tier-2) query fails with `fault`, exercising the
//! catch-note-degrade machinery end to end.
//!
//! Determinism: the operation counter is **per query**, reset when a query
//! enters the exact solver — not a process-global countdown. A given query
//! therefore either always or never faults, independent of how many worker
//! threads run or how queries interleave, so generated code stays
//! byte-identical per thread count even with a fault armed. Degraded
//! verdicts are never cached, so an armed fault behaves identically on
//! cold and warm caches (exact cached verdicts short-circuit the solver
//! and never reach the counter — by design: a cache hit is exact).
//!
//! The armed fault is process-global; tests that arm faults must serialize
//! among themselves.

use crate::limits::OmegaError;

/// A failure mode to force, mirroring [`OmegaError`].
#[cfg(feature = "faults")]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Fault {
    /// Forces [`OmegaError::Overflow`].
    Overflow,
    /// Forces [`OmegaError::BudgetExhausted`].
    BudgetExhausted,
    /// Forces [`OmegaError::DepthExceeded`].
    DepthExceeded,
    /// Forces [`OmegaError::RowCapExceeded`].
    RowCapExceeded,
    /// Forces [`OmegaError::DeadlineExceeded`].
    DeadlineExceeded,
}

#[cfg(feature = "faults")]
impl Fault {
    /// Every injectable fault, for matrix-style test drivers.
    pub const ALL: [Fault; 5] = [
        Fault::Overflow,
        Fault::BudgetExhausted,
        Fault::DepthExceeded,
        Fault::RowCapExceeded,
        Fault::DeadlineExceeded,
    ];

    /// The error this fault surfaces as.
    pub fn error(self) -> OmegaError {
        match self {
            Fault::Overflow => OmegaError::Overflow,
            Fault::BudgetExhausted => OmegaError::BudgetExhausted,
            Fault::DepthExceeded => OmegaError::DepthExceeded,
            Fault::RowCapExceeded => OmegaError::RowCapExceeded,
            Fault::DeadlineExceeded => OmegaError::DeadlineExceeded,
        }
    }

    /// Parses the tags used by the CI fault matrix (`OMEGA_FAULT`).
    pub fn from_tag(tag: &str) -> Option<Fault> {
        Some(match tag {
            "overflow" => Fault::Overflow,
            "budget" => Fault::BudgetExhausted,
            "depth" => Fault::DepthExceeded,
            "rowcap" => Fault::RowCapExceeded,
            "deadline" => Fault::DeadlineExceeded,
            _ => return None,
        })
    }
}

#[cfg(feature = "faults")]
mod armed {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

    /// Op index at which to fire; `u64::MAX` means disarmed.
    pub(super) static TRIGGER: AtomicU64 = AtomicU64::new(u64::MAX);
    /// Discriminant of the armed [`super::Fault`].
    pub(super) static KIND: AtomicU8 = AtomicU8::new(0);

    thread_local! {
        /// Per-query operation counter (reset by `begin_query`).
        pub(super) static OPS: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn trigger() -> u64 {
        TRIGGER.load(Ordering::Relaxed)
    }

    pub(super) fn kind() -> super::Fault {
        super::Fault::ALL[KIND.load(Ordering::Relaxed) as usize]
    }
}

/// Arms the harness: from now on, the `n_ops`-th counted operation of each
/// exact-solver query (and every one after it) fails with `fault`.
/// `n_ops == 1` fires on the very first operation.
#[cfg(feature = "faults")]
pub fn inject_after(n_ops: u64, fault: Fault) {
    use std::sync::atomic::Ordering;
    armed::KIND.store(
        Fault::ALL.iter().position(|f| *f == fault).unwrap() as u8,
        Ordering::Relaxed,
    );
    armed::TRIGGER.store(n_ops, Ordering::Relaxed);
}

/// Disarms the harness.
#[cfg(feature = "faults")]
pub fn clear() {
    use std::sync::atomic::Ordering;
    armed::TRIGGER.store(u64::MAX, Ordering::Relaxed);
}

/// True when a fault is currently armed. Always false without the `faults`
/// feature. The splinter loop uses this to stay sequential under fault
/// injection: the per-query operation counter is thread-local, so splitting
/// *one* query's branches across workers would change which operation
/// count each branch sees — whole-query task parallelism is unaffected.
#[inline]
pub(crate) fn is_armed() -> bool {
    #[cfg(feature = "faults")]
    {
        armed::trigger() != u64::MAX
    }
    #[cfg(not(feature = "faults"))]
    false
}

/// Resets the per-query operation counter; called when a query enters the
/// exact solver. No-op without the `faults` feature.
#[inline]
pub(crate) fn begin_query() {
    #[cfg(feature = "faults")]
    armed::OPS.with(|c| c.set(0));
}

/// Counts one solver operation and fires the armed fault once the
/// per-query count reaches the trigger. No-op without the `faults`
/// feature.
#[inline]
pub(crate) fn tick() -> Result<(), OmegaError> {
    #[cfg(feature = "faults")]
    {
        let trigger = armed::trigger();
        if trigger != u64::MAX {
            let n = armed::OPS.with(|c| {
                let v = c.get().saturating_add(1);
                c.set(v);
                v
            });
            if n >= trigger {
                return Err(armed::kind().error());
            }
        }
    }
    Ok(())
}

#[cfg(all(test, feature = "faults"))]
mod tests {
    use super::*;

    #[test]
    fn tag_round_trip() {
        for (tag, fault) in [
            ("overflow", Fault::Overflow),
            ("budget", Fault::BudgetExhausted),
            ("depth", Fault::DepthExceeded),
            ("rowcap", Fault::RowCapExceeded),
            ("deadline", Fault::DeadlineExceeded),
        ] {
            assert_eq!(Fault::from_tag(tag), Some(fault));
        }
        assert_eq!(Fault::from_tag("bogus"), None);
    }
}
