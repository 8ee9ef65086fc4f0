//! # omega — Presburger arithmetic for polyhedra scanning
//!
//! A from-scratch reimplementation of the parts of the **Omega+** library
//! (an updated Omega library; Kelly et al., UMD 1995; Pugh, CACM 1992) that
//! the CodeGen+ polyhedra scanner depends on:
//!
//! * integer sets over named parameters and set variables, with existential
//!   ("wildcard") variables encoding stride/modulo constraints,
//! * exact satisfiability via the **Omega test** (equality elimination,
//!   integer-tightened Fourier–Motzkin, dark shadow, splintering),
//! * the high-level operations the paper builds its scanning algorithms on:
//!   [`Set::project_out`] (Project), [`Set::gist`] (Gist, including the
//!   Chinese-remainder-style strength reduction of modulo constraints),
//!   [`Set::hull`] (approximate union hull with lattice detection), and
//!   [`Set::approximate`] (Approximate).
//!
//! # Examples
//!
//! ```
//! use omega::Set;
//! // The triangular iteration space of the paper's introduction:
//! let s = Set::parse("[n] -> { [i,j] : 0 <= i < n && 0 <= j < i }").unwrap();
//! assert!(s.contains(&[10], &[5, 3]));
//! assert!(!s.contains(&[10], &[5, 5]));
//! // Project away j: { [i] : 1 <= i < n } (i must dominate at least one j).
//! let p = s.project_out(1, 1);
//! assert!(p.contains(&[10], &[1, 0]));
//! assert!(!p.contains(&[10], &[0, 0]));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arbitrary;
pub mod coeffs;
pub mod faults;
pub mod limits;
pub mod num;
pub mod par;
pub mod provenance;
pub mod stats;
pub mod trace;

mod bounds;
mod cache;
mod conjunct;
mod gist;
mod hull;
mod linexpr;
mod map;
mod parse;
mod project;
mod sat;
mod set;
mod space;
mod tier;

pub use bounds::VarBound;
pub use conjunct::Conjunct;
pub use limits::{Certainty, DegradeReasons, Limits, OmegaError};
pub use linexpr::{Constraint, ConstraintKind, LinExpr};
pub use map::AffineMap;
pub use parse::ParseSetError;
pub use set::{constant, param, var, Set};
pub use space::Space;

/// Empties the process-wide satisfiability memo cache.
///
/// Results are deterministic with or without the cache; this only matters
/// for benchmarks that want cold-cache timings and for tests isolating
/// cache behavior.
pub fn reset_sat_cache() {
    cache::SAT.clear();
    cache::GIST.clear();
}
