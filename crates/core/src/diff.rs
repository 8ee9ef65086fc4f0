//! Differential-testing support: the adapter that turns a fuzz case's
//! knob settings into a configured [`CodeGen`] run, and the structured
//! discrepancy report the harness (`crates/difftest`) emits when the
//! generators disagree with the oracle or with each other.
//!
//! Kept in `codegenplus` (rather than the harness crate) so the report
//! vocabulary is part of the generator's public contract: anything a
//! differential run can observe going wrong is named here.

use crate::{CodeGen, Generated, Statement};
use std::fmt;

/// Builds the [`CodeGen`] run for a case at one overhead-removal effort
/// ([`CodeGen::effort`]) — the single place the harness maps a
/// `DiffCase` onto generator knobs.
pub fn codegen_for(stmts: &[Statement], effort: usize) -> CodeGen {
    CodeGen::new().statements(stmts.to_vec()).effort(effort)
}

/// Runs the adapter end to end (the default "candidate" of the harness;
/// tests substitute deliberately-broken candidates to validate that the
/// harness catches and shrinks them).
///
/// # Errors
///
/// Propagates [`crate::CodeGenError`] from generation.
pub fn generate_for(stmts: &[Statement], effort: usize) -> Result<Generated, crate::CodeGenError> {
    codegen_for(stmts, effort).generate()
}

/// What kind of disagreement a differential run observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiscrepancyKind {
    /// An executed statement instance lies outside its statement's domain
    /// (e.g. an off-by-one loop bound executing one extra iteration).
    OutOfBounds,
    /// The executed sequence differs from the oracle's expected sequence
    /// (missing, duplicated, or reordered instances).
    TraceMismatch,
    /// The same case and effort produced different code on a cold cache
    /// and on the warm cache the first run left behind.
    NonDeterministic,
    /// Raising the overhead-removal effort made the static trade-off move
    /// the wrong way (guards inside loops increased, or code shrank while
    /// it must only grow).
    NonMonotone,
    /// One configuration failed to generate while another succeeded, or
    /// they failed with different errors.
    GenDisagreement,
    /// Generated code failed to execute (runaway loop, unbound variable).
    ExecFailure,
}

impl fmt::Display for DiscrepancyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DiscrepancyKind::OutOfBounds => "out-of-bounds execution",
            DiscrepancyKind::TraceMismatch => "trace mismatch",
            DiscrepancyKind::NonDeterministic => "cold/warm nondeterminism",
            DiscrepancyKind::NonMonotone => "non-monotone trade-off",
            DiscrepancyKind::GenDisagreement => "generation disagreement",
            DiscrepancyKind::ExecFailure => "execution failure",
        })
    }
}

/// A structured discrepancy report: what went wrong, under which tool and
/// effort, with a human-readable detail line (typically a
/// [`polyir::diff::Divergence`] rendering).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Discrepancy {
    /// The failure class.
    pub kind: DiscrepancyKind,
    /// Which generator produced the offending code (`"cloog"` /
    /// `"codegen+"`).
    pub tool: String,
    /// The CodeGen+ effort under which it was observed, when applicable.
    pub effort: Option<usize>,
    /// Diagnosis detail (first divergence, offending instance, …).
    pub detail: String,
}

impl Discrepancy {
    /// Convenience constructor.
    pub fn new(
        kind: DiscrepancyKind,
        tool: impl Into<String>,
        effort: Option<usize>,
        detail: impl Into<String>,
    ) -> Discrepancy {
        Discrepancy {
            kind,
            tool: tool.into(),
            effort,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Discrepancy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} in {}", self.kind, self.tool)?;
        if let Some(e) = self.effort {
            write!(f, " (effort={e})")?;
        }
        write!(f, ": {}", self.detail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega::Set;

    #[test]
    fn adapter_applies_knobs() {
        let s = Statement::new(
            "s0",
            Set::parse("[n] -> { [i] : 0 <= i < n && n >= 2 }").unwrap(),
        );
        let g = generate_for(&[s], 2).unwrap();
        // Effort 2 lifts the n >= 2 guard out of the loop entirely.
        assert_eq!(g.metrics().ifs_inside_loops, 0, "{}", g.to_c());
    }

    #[test]
    fn report_renders_readably() {
        let d = Discrepancy::new(
            DiscrepancyKind::OutOfBounds,
            "codegen+",
            Some(1),
            "instance s0[7] outside domain",
        );
        let msg = d.to_string();
        assert!(
            msg.contains("out-of-bounds") && msg.contains("effort=1") && msg.contains("s0[7]"),
            "{msg}"
        );
    }
}
