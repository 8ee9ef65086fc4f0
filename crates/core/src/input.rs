//! Input problem description: statements with transformed iteration spaces.

use omega::{Conjunct, LinExpr, Set, Space};
use std::error::Error;
use std::fmt;

/// One statement to be scanned: its (already transformed) iteration space
/// and the argument expressions to emit at each instance.
///
/// All statements of one code-generation problem must share a [`Space`];
/// use [`pad_statements`] to extend lower-dimensional spaces with constant
/// trailing dimensions (the paper's preprocessing step).
#[derive(Clone, Debug)]
pub struct Statement {
    /// Display name (`s0`, `s1`, … by default).
    pub name: String,
    /// Iteration space over the scanning space (may be a union).
    pub domain: Set,
    /// Argument expressions, in the *scanning* space, substituted into the
    /// statement at code generation (the paper's mapping-function variable
    /// substitution). Defaults to the identity on the scanned dimensions.
    pub args: Vec<LinExpr>,
}

impl Statement {
    /// A statement with identity arguments over all scanned dimensions.
    pub fn new(name: impl Into<String>, domain: Set) -> Statement {
        let space = domain.space().clone();
        let args = (0..space.n_vars())
            .map(|v| LinExpr::var(&space, v))
            .collect();
        Statement {
            name: name.into(),
            domain,
            args,
        }
    }

    /// Sets explicit argument expressions.
    ///
    /// # Panics
    ///
    /// Panics if any expression belongs to a different space.
    pub fn with_args(mut self, args: Vec<LinExpr>) -> Statement {
        for a in &args {
            assert_eq!(a.space(), self.domain.space(), "argument space mismatch");
        }
        self.args = args;
        self
    }
}

/// Errors reported by the code generators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodeGenError {
    /// No statements were supplied.
    NoStatements,
    /// Statements do not share a single scanning space.
    SpaceMismatch {
        /// Index of the offending statement.
        stmt: usize,
    },
    /// All statement domains are empty (nothing to generate).
    EmptyDomains,
    /// A loop level has no finite lower or upper bound.
    UnboundedLoop {
        /// 1-based loop level lacking a bound.
        level: usize,
    },
    /// A guard atom (e.g. an existential stride the scanner could not turn
    /// into loop structure) has no lowering to a conditional expression.
    UnloweredGuard {
        /// Display form of the offending atom.
        atom: String,
    },
    /// An internal invariant did not hold; reported as an error instead of
    /// panicking so callers can fall back or surface diagnostics.
    Internal {
        /// What went wrong, for diagnostics.
        detail: String,
    },
}

impl fmt::Display for CodeGenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeGenError::NoStatements => write!(f, "no statements to scan"),
            CodeGenError::SpaceMismatch { stmt } => {
                write!(f, "statement {stmt} uses a different scanning space")
            }
            CodeGenError::EmptyDomains => write!(f, "all statement domains are empty"),
            CodeGenError::UnboundedLoop { level } => {
                write!(f, "loop level {level} has no finite bound")
            }
            CodeGenError::UnloweredGuard { atom } => {
                write!(f, "cannot lower existential guard atom: {atom}")
            }
            CodeGenError::Internal { detail } => {
                write!(f, "internal code-generation invariant violated: {detail}")
            }
        }
    }
}

impl Error for CodeGenError {}

/// Extends every statement to the dimensionality of the deepest one by
/// appending constant dimensions (value `pad_value`, default 0), giving all
/// statements a common scanning space — the paper's preprocessing step.
/// Parameters must agree across statements.
///
/// # Panics
///
/// Panics if statements disagree on parameter names.
pub fn pad_statements(stmts: &[Statement], pad_value: i64) -> Vec<Statement> {
    let max_dims = stmts
        .iter()
        .map(|s| s.domain.space().n_vars())
        .max()
        .unwrap_or(0);
    let params: Vec<String> = stmts
        .first()
        .map(|s| s.domain.space().param_names().to_vec())
        .unwrap_or_default();
    let pr: Vec<&str> = params.iter().map(String::as_str).collect();
    let vars: Vec<String> = (1..=max_dims).map(|i| format!("t{i}")).collect();
    let vr: Vec<&str> = vars.iter().map(String::as_str).collect();
    let target = Space::new(&pr, &vr);

    stmts
        .iter()
        .map(|s| {
            let old = s.domain.space();
            assert_eq!(
                old.param_names(),
                target.param_names(),
                "statements disagree on parameters"
            );
            let old_dims = old.n_vars();
            // Rebuild each conjunct in the target space.
            let mut domain = Set::empty(&target);
            for c in s.domain.conjuncts() {
                let padded = embed_conjunct(c, &target, old_dims, pad_value);
                domain.union_with(&Set::from_conjunct(padded));
            }
            let args: Vec<LinExpr> = s
                .args
                .iter()
                .map(|a| embed_expr(a, &target, old_dims))
                .collect();
            Statement {
                name: s.name.clone(),
                domain,
                args,
            }
        })
        .collect()
}

fn embed_expr(e: &LinExpr, target: &Space, old_dims: usize) -> LinExpr {
    let raw = e.raw_coeffs();
    let np = target.n_params();
    let mut out = vec![0i64; 1 + target.n_named()];
    out[0] = raw[0];
    out[1..1 + np].copy_from_slice(&raw[1..1 + np]);
    for v in 0..old_dims {
        out[1 + np + v] = raw[1 + np + v];
    }
    LinExpr::from_raw(target, &out)
}

fn embed_conjunct(c: &Conjunct, target: &Space, old_dims: usize, pad_value: i64) -> Conjunct {
    let mut out = c.embed_into(target);
    for v in old_dims..target.n_vars() {
        let e = LinExpr::var(target, v) - pad_value;
        out.add_constraint(&e.eq0());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_args_default() {
        let d = Set::parse("[n] -> { [i,j] : 0 <= i < n && 0 <= j < n }").unwrap();
        let s = Statement::new("s0", d);
        assert_eq!(s.args.len(), 2);
        assert_eq!(s.args[1].to_string(), "j");
    }

    #[test]
    fn padding_extends_with_constant_dims() {
        let s0 = Statement::new(
            "s0",
            Set::parse("[n] -> { [i] : 1 <= i <= 100 && n >= 2 }").unwrap(),
        );
        let s1 = Statement::new(
            "s1",
            Set::parse("[n] -> { [i,j] : 1 <= i <= 100 && 1 <= j <= 100 }").unwrap(),
        );
        let padded = pad_statements(&[s0, s1], 0);
        assert_eq!(padded[0].domain.space().n_vars(), 2);
        assert_eq!(padded[0].domain.space(), padded[1].domain.space());
        // s0's second dim pinned to 0.
        assert!(padded[0].domain.contains(&[5], &[3, 0]));
        assert!(!padded[0].domain.contains(&[5], &[3, 1]));
        // s1 unchanged semantically.
        assert!(padded[1].domain.contains(&[5], &[3, 7]));
        // s0 keeps one arg expression referring to i.
        assert_eq!(padded[0].args.len(), 1);
        assert_eq!(padded[0].args[0].to_string(), "t1");
    }

    #[test]
    fn padding_preserves_strides() {
        let s0 = Statement::new(
            "s0",
            Set::parse("{ [i] : 1 <= i <= 20 && exists(a : i = 2a) }").unwrap(),
        );
        let s1 = Statement::new("s1", Set::parse("{ [i,j] : j = i }").unwrap());
        let padded = pad_statements(&[s0, s1], 0);
        assert!(padded[0].domain.contains(&[], &[4, 0]));
        assert!(!padded[0].domain.contains(&[], &[5, 0]));
    }

    #[test]
    fn error_display() {
        assert_eq!(
            CodeGenError::NoStatements.to_string(),
            "no statements to scan"
        );
        assert!(CodeGenError::SpaceMismatch { stmt: 3 }
            .to_string()
            .contains('3'));
    }
}
