//! # difftest — differential fuzzing for the polyhedra scanners
//!
//! The paper's claim is behavioral equivalence: CodeGen+ must scan
//! *exactly* the same (statement, iteration) sequence as the
//! Quilleré/CLooG-style baseline at every overhead-removal trade-off
//! point. This crate turns that claim into a generator-driven harness:
//!
//! * [`gen::gen_case`] derives a random case from a seed — parameterized
//!   bounds, strides, existential constraints, index-set splits, unions,
//!   multi-statement lexicographic interleavings (the §2.2 repertoire) —
//!   deterministically, via [`omega::arbitrary`];
//! * [`check::check_case`] drives it through the CLooG baseline and
//!   through CodeGen+ at every effort depth (each generated twice, cold
//!   then warm), executes everything through the `polyir` oracle, and
//!   asserts oracle equality, cold/warm determinism, and (on the convex
//!   stride-free fragment where it is a hard contract) monotone
//!   trade-offs;
//! * [`shrink::shrink`] minimizes any failing case (drop statements →
//!   drop dimensions → drop conjuncts → drop constraints → shrink
//!   coefficients) to a reproducer small enough to read;
//! * [`case::DiffCase::render`] / [`case::parse_case`] round-trip cases
//!   through the `.difftest` text format the regression corpus under
//!   `tests/corpus/` is stored in.
//!
//! The `difftest` binary in `bench-harness` wraps this into the CI fuzz
//! lane (`difftest --seeds N --time-budget 20m --minimize`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod case;
pub mod check;
pub mod gen;
pub mod shrink;
pub mod testing;

pub use case::{parse_case, CaseParseError, DiffCase, ReplayCase};
pub use check::{check_case, check_case_with, check_statements, CaseOutcome, CheckOptions};
pub use gen::gen_case;
pub use shrink::shrink;

/// Generates and checks the case for one seed with default options — the
/// fuzz loop's body.
pub fn fuzz_one(seed: u64) -> (DiffCase, CaseOutcome) {
    let case = gen_case(seed);
    let outcome = check_case(&case);
    (case, outcome)
}
