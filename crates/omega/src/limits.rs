//! Per-query resource governor and degradation certificates.
//!
//! The Omega test is worst-case exponential (splintering) and squares
//! coefficient magnitudes during Fourier–Motzkin elimination, so every
//! solver entry point runs under a [`Limits`] governor: a work budget, a
//! recursion-depth cap, a row-count cap and an optional wall-clock
//! deadline. When a limit trips, the solver answers *conservatively*
//! (satisfiable — sound for every caller: emptiness pruning keeps more
//! pieces, implication checks keep more constraints) and records the
//! reason in a thread-local [`DegradeReasons`] set instead of panicking.
//!
//! The scope of an observation is [`with_limits`]: it installs a governor,
//! runs a closure, and returns the closure's result together with a
//! [`Certainty`] certificate — [`Certainty::Exact`] when no query inside
//! the scope degraded, [`Certainty::Approximate`] (with the union of
//! reasons) otherwise. Reasons are a commutative bitmask, so the
//! certificate does not depend on the order in which queries degraded.
//!
//! Degraded verdicts are **never** inserted into the process-wide memo
//! caches (the private `cache` module): exact verdicts are exact under any limits and
//! therefore always safe to share, while a budget-starved verdict must not
//! be replayed to a later caller with a fresh budget.

use std::cell::Cell;
use std::error::Error;
use std::fmt;
use std::time::Instant;

/// Resource limits for one satisfiability/gist query, installed for a
/// scope with [`with_limits`] and consulted by the tier-2 Omega test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Limits {
    /// Work budget (row-visits) per query. Splintering is worst-case
    /// exponential; the default (200 000) is far above anything realistic
    /// loop nests need.
    pub budget: u64,
    /// Recursion-depth cap of the Omega test.
    pub max_depth: usize,
    /// Row-count cap within one derivation: Fourier–Motzkin can square
    /// the system size, so a runaway derivation degrades instead of
    /// exhausting memory.
    pub row_cap: usize,
    /// Optional wall-clock deadline. `None` (the default) keeps results
    /// a pure function of the input — required for byte-identical output
    /// from run to run; set it only when latency matters more than
    /// reproducibility.
    pub deadline: Option<Instant>,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            budget: 200_000,
            max_depth: 512,
            row_cap: 2_048,
            deadline: None,
        }
    }
}

impl Limits {
    /// Effectively unlimited resources (no deadline). Useful for oracles
    /// and tests that must not degrade.
    pub fn unlimited() -> Limits {
        Limits {
            budget: u64::MAX,
            max_depth: usize::MAX,
            row_cap: usize::MAX,
            deadline: None,
        }
    }

    /// Errors with [`OmegaError::DeadlineExceeded`] when the deadline (if
    /// any) has passed.
    pub(crate) fn check_deadline(&self) -> Result<(), OmegaError> {
        match self.deadline {
            Some(d) if Instant::now() >= d => Err(OmegaError::DeadlineExceeded),
            _ => Ok(()),
        }
    }
}

/// A structured solver failure: why a query could not be answered exactly.
///
/// These never escape the crate as panics — the solver catches them at the
/// query boundary, answers conservatively, and records the reason in the
/// scope's [`DegradeReasons`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum OmegaError {
    /// A coefficient left the `i64` range even via `i128` intermediates.
    Overflow,
    /// The per-query work budget ([`Limits::budget`]) ran out.
    BudgetExhausted,
    /// The Omega test recursed past [`Limits::max_depth`].
    DepthExceeded,
    /// A derivation grew past [`Limits::row_cap`] rows.
    RowCapExceeded,
    /// The wall-clock deadline ([`Limits::deadline`]) passed.
    DeadlineExceeded,
}

impl OmegaError {
    /// Stable human-readable tag, also used by `Display`.
    pub fn as_str(self) -> &'static str {
        match self {
            OmegaError::Overflow => "overflow",
            OmegaError::BudgetExhausted => "budget-exhausted",
            OmegaError::DepthExceeded => "depth-exceeded",
            OmegaError::RowCapExceeded => "row-cap-exceeded",
            OmegaError::DeadlineExceeded => "deadline-exceeded",
        }
    }

    fn bit(self) -> u8 {
        match self {
            OmegaError::Overflow => 1 << 0,
            OmegaError::BudgetExhausted => 1 << 1,
            OmegaError::DepthExceeded => 1 << 2,
            OmegaError::RowCapExceeded => 1 << 3,
            OmegaError::DeadlineExceeded => 1 << 4,
        }
    }

    const ALL: [OmegaError; 5] = [
        OmegaError::Overflow,
        OmegaError::BudgetExhausted,
        OmegaError::DepthExceeded,
        OmegaError::RowCapExceeded,
        OmegaError::DeadlineExceeded,
    ];
}

impl fmt::Display for OmegaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Error for OmegaError {}

/// The set of failure modes observed inside a scope, as a commutative
/// bitmask: the union is order-independent, so certificates do not depend
/// on query order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct DegradeReasons(u8);

impl DegradeReasons {
    /// The empty set (no degradation observed).
    pub const EMPTY: DegradeReasons = DegradeReasons(0);

    /// True when no failure mode was observed.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Does the set contain this failure mode?
    pub fn contains(self, e: OmegaError) -> bool {
        self.0 & e.bit() != 0
    }

    /// Set union (commutative, associative).
    #[must_use]
    pub fn union(self, other: DegradeReasons) -> DegradeReasons {
        DegradeReasons(self.0 | other.0)
    }

    /// Adds one failure mode.
    #[must_use]
    pub fn with(self, e: OmegaError) -> DegradeReasons {
        DegradeReasons(self.0 | e.bit())
    }

    /// The contained failure modes, in declaration order.
    pub fn iter(self) -> impl Iterator<Item = OmegaError> {
        OmegaError::ALL
            .into_iter()
            .filter(move |e| self.contains(*e))
    }
}

impl fmt::Display for DegradeReasons {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("none");
        }
        let mut first = true;
        for e in self.iter() {
            if !first {
                f.write_str("+")?;
            }
            first = false;
            f.write_str(e.as_str())?;
        }
        Ok(())
    }
}

/// Degradation certificate attached to every verdict produced under a
/// [`with_limits`] scope.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Certainty {
    /// Every query inside the scope was answered exactly.
    Exact,
    /// At least one query degraded to a conservative answer; the reasons
    /// say which failure modes were hit. The result is a sound
    /// over-approximation, never wrong — just possibly looser than the
    /// exact answer.
    Approximate(DegradeReasons),
}

impl Certainty {
    /// True for [`Certainty::Exact`].
    pub fn is_exact(self) -> bool {
        matches!(self, Certainty::Exact)
    }

    /// The observed reasons (empty for [`Certainty::Exact`]).
    pub fn reasons(self) -> DegradeReasons {
        match self {
            Certainty::Exact => DegradeReasons::EMPTY,
            Certainty::Approximate(r) => r,
        }
    }

    /// `Exact` for an empty reason set, `Approximate` otherwise.
    pub fn from_reasons(r: DegradeReasons) -> Certainty {
        if r.is_empty() {
            Certainty::Exact
        } else {
            Certainty::Approximate(r)
        }
    }

    /// Combines two certificates: exact only when both are.
    #[must_use]
    pub fn merge(self, other: Certainty) -> Certainty {
        Certainty::from_reasons(self.reasons().union(other.reasons()))
    }
}

/// `exact`, or `approximate:reason1+reason2` with the stable
/// [`OmegaError::as_str`] tags: the one `certainty` vocabulary of the
/// daemon's replies and logs, [`crate::report::QueryReport`]s and `table1`.
impl fmt::Display for Certainty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Certainty::Exact => f.write_str("exact"),
            Certainty::Approximate(r) => write!(f, "approximate:{r}"),
        }
    }
}

thread_local! {
    static LIMITS: Cell<Limits> = Cell::new(Limits::default());
    static REASONS: Cell<u8> = const { Cell::new(0) };
}

/// The limits governing solver queries on the current thread
/// ([`Limits::default`] outside any [`with_limits`] scope).
pub fn current() -> Limits {
    LIMITS.with(Cell::get)
}

/// Records a degradation on the current thread's scope, counting *why*
/// per reason (the always-on histogram view of which limit actually fires
/// in production — budget starvation and deadline shedding look identical
/// in a `Certainty` but need different operator responses).
pub(crate) fn note(e: OmegaError) {
    REASONS.with(|r| r.set(r.get() | e.bit()));
    match e {
        OmegaError::Overflow => crate::stats::bump!(degrade_overflow),
        OmegaError::BudgetExhausted => crate::stats::bump!(degrade_budget),
        OmegaError::DepthExceeded => crate::stats::bump!(degrade_depth),
        OmegaError::RowCapExceeded => crate::stats::bump!(degrade_rowcap),
        OmegaError::DeadlineExceeded => crate::stats::bump!(degrade_deadline),
    }
}

/// Runs `f` under `limits` and reports what happened: the closure's result
/// plus a [`Certainty`] covering every solver query made inside. On exit
/// the previous limits are restored and the observed reasons also
/// propagate to the enclosing scope (an outer observer must not report
/// `Exact` when a nested scope degraded).
pub fn with_limits<R>(limits: Limits, f: impl FnOnce() -> R) -> (R, Certainty) {
    let prev_limits = LIMITS.with(|l| l.replace(limits));
    let prev_reasons = REASONS.with(|r| r.replace(0));
    let result = f();
    let observed = REASONS.with(Cell::get);
    LIMITS.with(|l| l.set(prev_limits));
    REASONS.with(|r| r.set(prev_reasons | observed));
    (result, Certainty::from_reasons(DegradeReasons(observed)))
}

/// Runs `f` under the *current* limits and returns the delta of reasons it
/// produced (which also remain noted in the enclosing scope). Used to
/// decide per-computation cacheability: only results whose delta is empty
/// may enter the process-wide memo caches.
pub(crate) fn observe<R>(f: impl FnOnce() -> R) -> (R, DegradeReasons) {
    let prev = REASONS.with(|r| r.replace(0));
    let result = f();
    let observed = REASONS.with(Cell::get);
    REASONS.with(|r| r.set(prev | observed));
    (result, DegradeReasons(observed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_historical_constants() {
        let l = Limits::default();
        assert_eq!(l.budget, 200_000);
        assert_eq!(l.max_depth, 512);
        assert_eq!(l.row_cap, 2_048);
        assert_eq!(l.deadline, None);
    }

    #[test]
    fn reasons_union_and_display() {
        let r = DegradeReasons::EMPTY
            .with(OmegaError::Overflow)
            .with(OmegaError::BudgetExhausted);
        assert!(r.contains(OmegaError::Overflow));
        assert!(r.contains(OmegaError::BudgetExhausted));
        assert!(!r.contains(OmegaError::DepthExceeded));
        assert_eq!(r.to_string(), "overflow+budget-exhausted");
        assert_eq!(DegradeReasons::EMPTY.to_string(), "none");
        assert_eq!(r.iter().count(), 2);
    }

    #[test]
    fn certainty_display() {
        assert_eq!(Certainty::Exact.to_string(), "exact");
        let r = DegradeReasons::EMPTY.with(OmegaError::DeadlineExceeded);
        assert_eq!(
            Certainty::from_reasons(r).to_string(),
            "approximate:deadline-exceeded"
        );
        let r = r.with(OmegaError::Overflow);
        assert_eq!(
            Certainty::from_reasons(r).to_string(),
            "approximate:overflow+deadline-exceeded"
        );
    }

    #[test]
    fn certainty_merge() {
        let a = Certainty::Exact;
        let b = Certainty::from_reasons(DegradeReasons::EMPTY.with(OmegaError::RowCapExceeded));
        assert!(a.merge(a).is_exact());
        assert!(!a.merge(b).is_exact());
        assert!(b.merge(a).reasons().contains(OmegaError::RowCapExceeded));
    }

    #[test]
    fn with_limits_restores_and_propagates() {
        let outer = Limits {
            budget: 99,
            ..Limits::default()
        };
        let ((), cert) = with_limits(outer, || {
            assert_eq!(current().budget, 99);
            let ((), inner) = with_limits(Limits::default(), || {
                note(OmegaError::Overflow);
            });
            assert!(!inner.is_exact());
            // Inner degradation propagates to this (outer) scope.
        });
        assert!(cert.reasons().contains(OmegaError::Overflow));
        assert_eq!(current(), Limits::default());
    }

    #[test]
    fn observe_reports_delta_and_keeps_note() {
        let ((), cert) = with_limits(Limits::default(), || {
            note(OmegaError::DepthExceeded);
            let ((), delta) = observe(|| note(OmegaError::Overflow));
            assert!(delta.contains(OmegaError::Overflow));
            assert!(!delta.contains(OmegaError::DepthExceeded));
            let ((), clean) = observe(|| ());
            assert!(clean.is_empty());
        });
        let r = cert.reasons();
        assert!(r.contains(OmegaError::Overflow) && r.contains(OmegaError::DepthExceeded));
    }

    #[test]
    fn deadline_check() {
        let l = Limits {
            deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
            ..Limits::default()
        };
        assert_eq!(l.check_deadline(), Err(OmegaError::DeadlineExceeded));
        assert_eq!(Limits::default().check_deadline(), Ok(()));
    }
}
