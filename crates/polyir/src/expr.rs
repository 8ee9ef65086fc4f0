//! Runtime expressions appearing in generated loop code: affine terms plus
//! the `min`/`max`/`floor`/`ceil`/`mod` operators that polyhedra scanning
//! introduces.

use std::fmt;

/// An integer expression in generated code. Variables refer to loop-variable
/// slots (`t1`, `t2`, …) by index; parameters are symbolic inputs (`n`, …).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Expr {
    /// Integer literal.
    Const(i64),
    /// Symbolic parameter by index.
    Param(usize),
    /// Loop variable slot by index.
    Var(usize),
    /// Sum of two expressions.
    Add(Box<Expr>, Box<Expr>),
    /// Difference of two expressions.
    Sub(Box<Expr>, Box<Expr>),
    /// Scaling by an integer constant.
    Mul(i64, Box<Expr>),
    /// Minimum of two expressions (from multiple upper bounds).
    Min(Box<Expr>, Box<Expr>),
    /// Maximum of two expressions (from multiple lower bounds).
    Max(Box<Expr>, Box<Expr>),
    /// `⌊e / d⌋` with a positive constant divisor.
    FloorDiv(Box<Expr>, i64),
    /// `⌈e / d⌉` with a positive constant divisor.
    CeilDiv(Box<Expr>, i64),
    /// Mathematical remainder `e mod d` in `[0, d)`, positive divisor.
    Mod(Box<Expr>, i64),
}

// `add`/`sub` are associated constructors, not `self` methods; they cannot
// shadow the operator traits.
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// Builder: `a + b` with light constant folding.
    pub fn add(a: Expr, b: Expr) -> Expr {
        match (a, b) {
            (Expr::Const(0), e) | (e, Expr::Const(0)) => e,
            (Expr::Const(x), Expr::Const(y)) => Expr::Const(x + y),
            (a, b) => Expr::Add(Box::new(a), Box::new(b)),
        }
    }

    /// Builder: `a - b` with light constant folding.
    pub fn sub(a: Expr, b: Expr) -> Expr {
        match (a, b) {
            (e, Expr::Const(0)) => e,
            (Expr::Const(x), Expr::Const(y)) => Expr::Const(x - y),
            (a, b) => Expr::Sub(Box::new(a), Box::new(b)),
        }
    }

    /// Builder: `k * e` with light constant folding.
    pub fn mul(k: i64, e: Expr) -> Expr {
        match (k, e) {
            (0, _) => Expr::Const(0),
            (1, e) => e,
            (k, Expr::Const(c)) => Expr::Const(k * c),
            (k, e) => Expr::Mul(k, Box::new(e)),
        }
    }

    /// Builder: binary `max`, folding equal operands and constants.
    pub fn max2(a: Expr, b: Expr) -> Expr {
        match (a, b) {
            (Expr::Const(x), Expr::Const(y)) => Expr::Const(x.max(y)),
            (a, b) if a == b => a,
            (a, b) => Expr::Max(Box::new(a), Box::new(b)),
        }
    }

    /// Builder: binary `min`, folding equal operands and constants.
    pub fn min2(a: Expr, b: Expr) -> Expr {
        match (a, b) {
            (Expr::Const(x), Expr::Const(y)) => Expr::Const(x.min(y)),
            (a, b) if a == b => a,
            (a, b) => Expr::Min(Box::new(a), Box::new(b)),
        }
    }

    /// `max` over a non-empty list; see [`Expr::min_of`] for the folding.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn max_of(items: Vec<Expr>) -> Expr {
        Expr::extremum_of(items, true)
    }

    /// `min` over a non-empty list. Nested `min` calls among the items are
    /// flattened into one term list, repeated terms are dropped and all
    /// integer literals fold into one, kept where the first literal was;
    /// the remaining terms keep the order of their first occurrence.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn min_of(items: Vec<Expr>) -> Expr {
        Expr::extremum_of(items, false)
    }

    fn extremum_of(items: Vec<Expr>, max: bool) -> Expr {
        let mut terms: Vec<Expr> = Vec::new();
        // Where the folded literal goes, and its value so far.
        let mut literal: Option<(usize, i64)> = None;
        let mut stack: Vec<Expr> = items.into_iter().rev().collect();
        while let Some(e) = stack.pop() {
            match e {
                Expr::Max(a, b) if max => stack.extend([*b, *a]),
                Expr::Min(a, b) if !max => stack.extend([*b, *a]),
                Expr::Const(c) => match &mut literal {
                    Some((_, k)) => *k = if max { c.max(*k) } else { c.min(*k) },
                    None => {
                        literal = Some((terms.len(), c));
                        terms.push(e);
                    }
                },
                e if !terms.contains(&e) => terms.push(e),
                _ => {}
            }
        }
        if let Some((i, k)) = literal {
            terms[i] = Expr::Const(k);
        }
        let mut it = terms.into_iter();
        let first = it
            .next()
            .expect("min_of/max_of requires at least one expression");
        it.fold(first, |a, b| {
            if max {
                Expr::Max(Box::new(a), Box::new(b))
            } else {
                Expr::Min(Box::new(a), Box::new(b))
            }
        })
    }

    /// The number of AST nodes (used by the compile-time stand-in metric).
    pub fn size(&self) -> usize {
        match self {
            Expr::Const(_) | Expr::Param(_) | Expr::Var(_) => 1,
            Expr::Mul(_, e) | Expr::FloorDiv(e, _) | Expr::CeilDiv(e, _) | Expr::Mod(e, _) => {
                1 + e.size()
            }
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Min(a, b) | Expr::Max(a, b) => {
                1 + a.size() + b.size()
            }
        }
    }

    /// True if the expression mentions loop variable `v`.
    pub fn uses_var(&self, v: usize) -> bool {
        match self {
            Expr::Var(x) => *x == v,
            Expr::Const(_) | Expr::Param(_) => false,
            Expr::Mul(_, e) | Expr::FloorDiv(e, _) | Expr::CeilDiv(e, _) | Expr::Mod(e, _) => {
                e.uses_var(v)
            }
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Min(a, b) | Expr::Max(a, b) => {
                a.uses_var(v) || b.uses_var(v)
            }
        }
    }
}

/// Atomic runtime condition.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum CondAtom {
    /// `e >= 0`.
    GeqZero(Expr),
    /// `e == 0`.
    EqZero(Expr),
    /// `e mod m == 0` (mathematical mod, `m > 0`).
    ModZero(Expr, i64),
    /// `e mod m <= k` (mathematical mod, `m > 0`) — from range-mod guards
    /// such as `∃α: 0 ≤ e − mα ≤ k`.
    ModLeq(Expr, i64, i64),
}

impl CondAtom {
    /// AST size of the atom.
    pub fn size(&self) -> usize {
        match self {
            CondAtom::GeqZero(e) | CondAtom::EqZero(e) => 1 + e.size(),
            CondAtom::ModZero(e, _) => 2 + e.size(),
            CondAtom::ModLeq(e, _, _) => 3 + e.size(),
        }
    }
}

/// A conjunction of atomic conditions guarding generated code. An empty
/// conjunction is `true`.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Cond {
    atoms: Vec<CondAtom>,
}

impl Cond {
    /// The always-true condition.
    pub fn always() -> Cond {
        Cond::default()
    }

    /// A condition with a single atom.
    pub fn atom(a: CondAtom) -> Cond {
        Cond { atoms: vec![a] }
    }

    /// Builds from a list of atoms.
    pub fn from_atoms(atoms: Vec<CondAtom>) -> Cond {
        Cond { atoms }
    }

    /// The atoms of the conjunction.
    pub fn atoms(&self) -> &[CondAtom] {
        &self.atoms
    }

    /// True if the condition is trivially true.
    pub fn is_always(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Conjunction of two conditions.
    pub fn and(mut self, other: Cond) -> Cond {
        for a in other.atoms {
            if !self.atoms.contains(&a) {
                self.atoms.push(a);
            }
        }
        self
    }

    /// Total AST size.
    pub fn size(&self) -> usize {
        self.atoms.iter().map(CondAtom::size).sum()
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}",
            crate::print::expr_to_string(self, &crate::print::Names::default())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_fold_constants() {
        assert_eq!(Expr::add(Expr::Const(2), Expr::Const(3)), Expr::Const(5));
        assert_eq!(Expr::add(Expr::Var(0), Expr::Const(0)), Expr::Var(0));
        assert_eq!(Expr::mul(1, Expr::Var(2)), Expr::Var(2));
        assert_eq!(Expr::mul(0, Expr::Param(0)), Expr::Const(0));
        assert_eq!(Expr::sub(Expr::Var(1), Expr::Const(0)), Expr::Var(1));
        assert_eq!(Expr::max2(Expr::Var(0), Expr::Var(0)), Expr::Var(0));
    }

    #[test]
    fn size_counts_nodes() {
        let e = Expr::add(Expr::mul(2, Expr::Var(0)), Expr::Param(0));
        assert_eq!(e.size(), 4);
    }

    #[test]
    fn uses_var_traverses() {
        let e = Expr::min2(Expr::Var(3), Expr::add(Expr::Param(0), Expr::Const(1)));
        assert!(e.uses_var(3));
        assert!(!e.uses_var(0));
    }

    #[test]
    fn cond_and_dedups() {
        let a = Cond::atom(CondAtom::GeqZero(Expr::Var(0)));
        let b = a.clone().and(a.clone());
        assert_eq!(b.atoms().len(), 1);
        assert!(Cond::always().is_always());
        assert!(!b.is_always());
    }

    #[test]
    fn max_of_folds() {
        let e = Expr::max_of(vec![Expr::Var(0), Expr::Var(1), Expr::Var(0)]);
        assert_eq!(e, Expr::max2(Expr::Var(0), Expr::Var(1)));
    }

    #[test]
    fn max_of_flattens_nested_calls_and_folds_literals() {
        let n = || Expr::Param(0);
        let names = crate::print::Names {
            params: vec!["n".into()],
            ..Default::default()
        };
        // Difftest seed 8 at effort 0: `max(max(n,2),1)`.
        let nested = Expr::max2(n(), Expr::Const(2));
        let e = Expr::max_of(vec![nested, Expr::Const(1)]);
        assert_eq!(crate::print::expr_to_string(&e, &names), "max(n,2)");
        // Seed 19's shape: repeats and literals anywhere in the nest.
        let terms = [
            Expr::add(n(), Expr::Const(2)),
            Expr::Const(7),
            Expr::Const(7),
            Expr::add(Expr::Var(0), Expr::Const(1)),
            Expr::add(n(), Expr::Const(3)),
            Expr::Const(2),
            Expr::Const(6),
        ];
        let chain = terms.iter().cloned().reduce(Expr::max2).unwrap();
        let e = Expr::max_of(vec![chain, Expr::Const(6)]);
        assert_eq!(
            crate::print::expr_to_string(&e, &names),
            "max(max(max(n+2,7),t1+1),n+3)"
        );
        // Only literals: one literal.
        let e = Expr::max_of(vec![Expr::Const(3), Expr::max2(Expr::Const(-1), n())]);
        assert_eq!(e, Expr::max2(Expr::Const(3), n()));
        assert_eq!(
            Expr::max_of(vec![Expr::Const(4), Expr::Const(9)]),
            Expr::Const(9)
        );
    }

    #[test]
    fn min_of_flattens_only_its_own_kind() {
        let inner_max = Expr::max2(Expr::Var(0), Expr::Const(5));
        let e = Expr::min_of(vec![
            Expr::min2(Expr::Param(0), Expr::Const(8)),
            inner_max.clone(),
            Expr::Const(3),
            Expr::Param(0),
        ]);
        let want = Expr::min2(Expr::min2(Expr::Param(0), Expr::Const(3)), inner_max);
        assert_eq!(e, want);
    }
}
