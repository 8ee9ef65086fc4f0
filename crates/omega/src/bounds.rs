//! Public accessors on [`Conjunct`] used by polyhedra scanners: loop-bound
//! extraction, degenerate-loop detection, stride recognition, guard-atom
//! decomposition, and single-conjunct complements.

use crate::conjunct::Conjunct;
use crate::gist::gist_conjunct;
use crate::linexpr::{Constraint, ConstraintKind, LinExpr};
use crate::set::{atoms, atoms_not_in, local_groups, range_mod_pattern, try_complement_atom};

/// A lower or upper bound on a loop variable extracted from a conjunct:
/// `coeff · v ≥ expr` (lower) or `coeff · v ≤ expr` (upper), with
/// `coeff > 0` and `expr` free of `v` and of existential variables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VarBound {
    /// Positive coefficient of the bounded variable.
    pub coeff: i64,
    /// The bounding expression over the remaining named columns.
    pub expr: LinExpr,
}

impl Conjunct {
    /// Local-free inequality bounds on set variable `v`:
    /// `(lower_bounds, upper_bounds)`.
    pub fn bounds_on(&self, v: usize) -> (Vec<VarBound>, Vec<VarBound>) {
        let named = 1 + self.space().n_named();
        let col = self.var_col(v);
        let mut lowers = Vec::new();
        let mut uppers = Vec::new();
        for r in self.rows() {
            if r.kind != ConstraintKind::Geq || r.c[col] == 0 {
                continue;
            }
            if r.c[named..].iter().any(|&x| x != 0) {
                continue; // existential bound — not expressible as a loop bound
            }
            let a = r.c[col];
            // a·v + e ≥ 0.  For a > 0: v ≥ ⌈-e/a⌉ (lower).  For a < 0:
            // (-a)·v ≤ e (upper).
            let mut e = r.c[..named].to_vec();
            e[col] = 0;
            if a > 0 {
                let neg: Vec<i64> = e.iter().map(|&x| -x).collect();
                lowers.push(VarBound {
                    coeff: a,
                    expr: LinExpr::from_raw(self.space(), &neg),
                });
            } else {
                uppers.push(VarBound {
                    coeff: -a,
                    expr: LinExpr::from_raw(self.space(), &e),
                });
            }
        }
        (lowers, uppers)
    }

    /// A local-free equality determining variable `v`: returns `(c, e)` with
    /// `c·v = e`, `c > 0`, `e` free of `v`. This is the paper's *degenerate
    /// loop* condition.
    pub fn equality_on(&self, v: usize) -> Option<(i64, LinExpr)> {
        let named = 1 + self.space().n_named();
        let col = self.var_col(v);
        for r in self.rows() {
            if r.kind != ConstraintKind::Eq || r.c[col] == 0 {
                continue;
            }
            if r.c[named..].iter().any(|&x| x != 0) {
                continue;
            }
            let a = r.c[col];
            // a·v + e = 0  →  |a|·v = sign(a)·(-e)
            let mut e = r.c[..named].to_vec();
            e[col] = 0;
            let s = if a > 0 { -1 } else { 1 };
            let e: Vec<i64> = e.iter().map(|&x| s * x).collect();
            return Some((a.abs(), LinExpr::from_raw(self.space(), &e)));
        }
        None
    }

    /// A stride constraint on variable `v` with unit coefficient: returns
    /// `(m, r)` meaning `v ≡ r (mod m)` with `m > 1` and `r` free of `v`.
    pub fn stride_on(&self, v: usize) -> Option<(i64, LinExpr)> {
        let named = 1 + self.space().n_named();
        let col = self.var_col(v);
        for atom in local_groups(self) {
            if atom.n_locals() != 1 {
                continue;
            }
            let Some(rm) = range_mod_pattern(&atom) else {
                continue;
            };
            if rm.lo != rm.hi {
                continue; // a range, not an exact congruence
            }
            let a = rm.expr[col];
            if a.abs() != 1 {
                continue;
            }
            // expr ≡ lo (mod m) where expr = a·v + rest
            // v ≡ a·(lo - rest) (mod m)
            let mut rest = rm.expr.clone();
            rest[col] = 0;
            let mut raw: Vec<i64> = rest.iter().map(|&x| -a * x).collect();
            raw[0] += a * rm.lo;
            raw.truncate(named);
            // The residue is only defined modulo m: keep its constant term
            // canonical in [0, m).
            raw[0] = crate::num::mod_floor(raw[0], rm.m);
            return Some((rm.m, LinExpr::from_raw(self.space(), &raw)));
        }
        None
    }

    /// All local-free constraints that involve set variable `v` (candidates
    /// for iteration-space splitting in `initAST`).
    pub fn constraints_on_var(&self, v: usize) -> Vec<Constraint> {
        let named = 1 + self.space().n_named();
        let col = self.var_col(v);
        let mut out = Vec::new();
        for r in self.rows() {
            if r.c[col] == 0 || r.c[named..].iter().any(|&x| x != 0) {
                continue;
            }
            let e = LinExpr::from_raw(self.space(), &r.c[..named]);
            out.push(match r.kind {
                ConstraintKind::Eq => e.eq0(),
                ConstraintKind::Geq => e.geq0(),
            });
        }
        out
    }

    /// Decomposes the conjunct into guard *atoms*: single local-free
    /// constraints, plus maximal groups of rows connected by shared
    /// existential variables (stride/range constraints).
    pub fn guard_atoms(&self) -> Vec<Conjunct> {
        if self.is_known_false() {
            return vec![self.clone()];
        }
        atoms(self)
    }

    /// The guard atoms of `self` that are not among `known`'s, in
    /// [`Conjunct::guard_atoms`] order: what filtering `self.guard_atoms()`
    /// by `known.guard_atoms().contains` returns, without building an atom
    /// for a local-free row that `known` already holds.
    pub fn guard_atoms_not_in(&self, known: &Conjunct) -> Vec<Conjunct> {
        if !self.is_known_false() && !known.is_known_false() {
            if let Some(out) = atoms_not_in(self, known) {
                return out;
            }
        }
        let known_atoms = known.guard_atoms();
        let mut out = self.guard_atoms();
        out.retain(|a| !known_atoms.contains(a));
        out
    }

    /// The complement of this conjunct if it is a single conjunct — the
    /// paper's requirement for a liftable overhead condition. Returns `None`
    /// when the complement is a union (e.g. for an affine equality).
    pub fn complement_single(&self) -> Option<Conjunct> {
        let mut pieces = if self.n_locals() == 0 {
            // One atom per row: the conjunct itself when it has one row.
            if self.n_rows() != 1 {
                return None;
            }
            try_complement_atom(self)?
        } else {
            let ats = atoms(self);
            if ats.len() != 1 {
                return None;
            }
            try_complement_atom(&ats[0])?
        };
        if pieces.len() != 1 {
            return None;
        }
        Some(pieces.pop().unwrap())
    }

    /// If this conjunct (typically a guard atom) is a pure congruence/range
    /// pattern over one existential variable, returns `(expr, m, lo, hi)`
    /// meaning `∃α: lo ≤ expr − m·α ≤ hi` — i.e. `expr mod m ∈ [lo, hi]`
    /// after shifting. `lo == hi` is an exact congruence.
    pub fn range_mod(&self) -> Option<(LinExpr, i64, i64, i64)> {
        let ats = atoms(self);
        if ats.len() != 1 {
            return None;
        }
        let rm = range_mod_pattern(&ats[0])?;
        let named = 1 + self.space().n_named();
        let expr = LinExpr::from_raw(self.space(), &rm.expr[..named]);
        Some((expr, rm.m, rm.lo, rm.hi))
    }

    /// The highest set-variable index used by any row (including stride
    /// rows), or `None` if no set variable occurs.
    pub fn max_var_used(&self) -> Option<usize> {
        (0..self.space().n_vars()).rev().find(|&v| self.uses_var(v))
    }

    /// True if set variable `v` occurs in any row.
    pub fn uses_var(&self, v: usize) -> bool {
        let col = self.var_col(v);
        self.rows().iter().any(|r| r.c[col] != 0)
    }

    /// Net sign of `v`'s coefficient in the first inequality mentioning it:
    /// positive means this conjunct bounds `v` from below (holds for the
    /// *larger* values). Used to order split-node children lexicographically.
    pub fn var_sign_hint(&self, v: usize) -> i64 {
        let col = self.var_col(v);
        for r in self.rows() {
            if r.kind == ConstraintKind::Geq && r.c[col] != 0 {
                return r.c[col].signum();
            }
        }
        0
    }

    /// `Gist(self, context)` at conjunct level (see [`crate::Set::gist`]).
    pub fn gist(&self, context: &Conjunct) -> Conjunct {
        gist_conjunct(self, context)
    }

    /// This conjunct as a one-disjunct [`crate::Set`].
    pub fn to_set(&self) -> crate::Set {
        if self.is_known_false() {
            crate::Set::empty(self.space())
        } else {
            crate::Set::from_conjunct(self.clone())
        }
    }

    /// Simplifies in place: eliminates removable existential variables and
    /// canonicalizes rows.
    pub fn simplified(&self) -> Conjunct {
        crate::project::simplify_conjunct(self)
    }

    /// Local-free over-approximation: remaining existentials are removed
    /// by real-shadow Fourier–Motzkin, so stride/congruence information is
    /// dropped but inequality bounds expressible only *through* a local
    /// become explicit rows that [`Conjunct::bounds_on`] can see. The
    /// result contains `self`; use it where scanning a superset is sound.
    pub fn real_shadow(&self) -> Conjunct {
        crate::project::real_shadow(self)
    }

    /// Drops inequality rows implied by the remaining rows (so bounds like
    /// `v ≤ n` next to `v ≤ n-1` disappear).
    pub fn without_redundant(&self) -> Conjunct {
        crate::gist::drop_self_redundant(self.clone())
    }

    /// Raw row view: each constraint as `(kind, coefficients)` over the
    /// columns `[constant | params | vars | locals]` (asserted `= 0` or
    /// `≥ 0`). For consumers that lower constraints to runtime code.
    pub fn rows_raw(&self) -> impl Iterator<Item = (ConstraintKind, &[i64])> + '_ {
        self.rows().iter().map(|r| (r.kind, r.c.as_slice()))
    }

    /// Translates set variable `v`: the result constrains `v' = v + delta`
    /// (`delta` must not mention `v`). This is the loop *shift*
    /// transformation.
    ///
    /// # Panics
    ///
    /// Panics if `delta` mentions `v` or belongs to a different space.
    pub fn translate_var(&self, v: usize, delta: &LinExpr) -> Conjunct {
        assert_eq!(delta.space(), self.space());
        assert_eq!(delta.var_coeff(v), 0, "delta must not mention the variable");
        let col = self.var_col(v);
        let mut out = self.clone();
        if out.is_known_false() {
            return out;
        }
        let delta_cols = delta.raw_coeffs();
        let rows = std::mem::take(out.rows_mut());
        for mut r in rows {
            let k = r.c[col];
            if k != 0 {
                // v_old = v_new - delta: keep k on the column, subtract k·delta.
                for (j, &d) in delta_cols.iter().enumerate() {
                    if d != 0 {
                        r.c[j] = crate::num::add(r.c[j], crate::num::mul(-k, d));
                    }
                }
            }
            out.push_row(r);
        }
        out
    }

    /// Re-expresses this conjunct in `target` with an explicit variable
    /// mapping: old set variable `v` becomes `target` variable `map[v]`.
    /// Parameters must be identical; unmapped target variables are
    /// unconstrained. Exact for all rows including existential ones.
    ///
    /// # Panics
    ///
    /// Panics on parameter mismatch, out-of-range or duplicate targets.
    pub fn remap_vars(&self, target: &crate::Space, map: &[usize]) -> Conjunct {
        let src = self.space();
        assert_eq!(src.param_names(), target.param_names());
        assert_eq!(map.len(), src.n_vars());
        let mut seen = vec![false; target.n_vars()];
        for &m in map {
            assert!(m < target.n_vars(), "remap target out of range");
            assert!(!seen[m], "duplicate remap target");
            seen[m] = true;
        }
        let np = src.n_params();
        let mut cols: Vec<usize> = Vec::with_capacity(self.ncols());
        cols.push(0);
        for p in 0..np {
            cols.push(1 + p);
        }
        for &m in &map[..src.n_vars()] {
            cols.push(1 + np + m);
        }
        let new_named = 1 + target.n_named();
        for l in 0..self.n_locals() {
            cols.push(new_named + l);
        }
        self.remap_columns(target, self.n_locals(), &cols)
    }

    /// Exchanges two set variables (columns), e.g. to compare two
    /// polyhedra along one dimension by placing them on distinct variables.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn swap_vars(&self, a: usize, b: usize) -> Conjunct {
        assert!(a < self.space().n_vars() && b < self.space().n_vars());
        if a == b {
            return self.clone();
        }
        let mut map: Vec<usize> = (0..self.ncols()).collect();
        map.swap(self.var_col(a), self.var_col(b));
        self.remap_columns(self.space(), self.n_locals(), &map)
    }

    /// Re-expresses this conjunct in `target`, which must have the same
    /// parameters and at least as many set variables; the original variables
    /// map positionally onto the first dimensions. All rows (including
    /// existential ones) are preserved exactly.
    ///
    /// # Panics
    ///
    /// Panics if parameters differ or `target` has fewer variables.
    pub fn embed_into(&self, target: &crate::Space) -> Conjunct {
        let src = self.space();
        assert_eq!(
            src.param_names(),
            target.param_names(),
            "embed_into requires identical parameters"
        );
        assert!(
            target.n_vars() >= src.n_vars(),
            "embed_into target has fewer variables"
        );
        let np = src.n_params();
        let mut map: Vec<usize> = Vec::with_capacity(self.ncols());
        map.push(0);
        for p in 0..np {
            map.push(1 + p);
        }
        for v in 0..src.n_vars() {
            map.push(1 + np + v);
        }
        let new_named = 1 + target.n_named();
        for l in 0..self.n_locals() {
            map.push(new_named + l);
        }
        self.remap_columns(target, self.n_locals(), &map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set::Set;
    use crate::space::Space;

    fn conj(text: &str) -> Conjunct {
        Set::parse(text).unwrap().conjuncts()[0].clone()
    }

    #[test]
    fn bounds_extraction() {
        let c = conj("[n] -> { [i,j] : 0 <= i && 2i <= n && i <= 50 }");
        let (lo, hi) = c.bounds_on(0);
        assert_eq!(lo.len(), 1);
        assert_eq!(lo[0].coeff, 1);
        assert_eq!(lo[0].expr.to_string(), "0");
        assert_eq!(hi.len(), 2);
        let coeffs: Vec<i64> = hi.iter().map(|b| b.coeff).collect();
        assert!(coeffs.contains(&2) && coeffs.contains(&1));
    }

    #[test]
    fn degenerate_equality() {
        let c = conj("[n] -> { [i,j] : i = n + 2 }");
        let (a, e) = c.equality_on(0).expect("degenerate");
        assert_eq!(a, 1);
        assert_eq!(e.to_string(), "n + 2");
        // Equality on j not found through i's accessor.
        assert!(c.equality_on(1).is_none());
        // Non-unit coefficient preserved.
        let c = conj("[n] -> { [i,j] : 2i = n }");
        let (a, e) = c.equality_on(0).expect("degenerate");
        assert_eq!(a, 2);
        assert_eq!(e.to_string(), "n");
    }

    #[test]
    fn stride_recognition() {
        let c = conj("{ [i,j] : exists(a : i = 4a + 1) }");
        let (m, r) = c.stride_on(0).expect("stride");
        assert_eq!(m, 4);
        assert_eq!(r.to_string(), "1");
        // j ≡ i (mod 3)
        let c = conj("{ [i,j] : exists(b : j = i + 3b) }");
        let (m, r) = c.stride_on(1).expect("stride");
        assert_eq!(m, 3);
        assert_eq!(r.to_string(), "i");
        assert!(c.stride_on(0).is_none() || c.stride_on(0).unwrap().1.to_string() == "j");
    }

    #[test]
    fn guard_atoms_and_complement() {
        let c = conj("[n] -> { [i,j] : i >= 2 && exists(a : i = 2a) }");
        let ats = c.guard_atoms();
        assert_eq!(ats.len(), 2);
        for a in &ats {
            let comp = a.complement_single().expect("single-conjunct complement");
            // a ∪ ¬a covers, a ∩ ¬a empty (point check)
            for i in -6..=6 {
                let in_a = a.contains(&[100], &[i, 0]);
                let in_c = comp.contains(&[100], &[i, 0]);
                assert!(in_a ^ in_c, "i={i} atom={a} comp={comp}");
            }
        }
        // Equality atom has no single-conjunct complement.
        let c = conj("[n] -> { [i,j] : i = 5 }");
        assert!(c.guard_atoms()[0].complement_single().is_none());
    }

    #[test]
    fn var_usage_helpers() {
        let c = conj("[n] -> { [i,j] : i <= n && exists(a : j = 2a) }");
        assert!(c.uses_var(0));
        assert!(c.uses_var(1));
        assert_eq!(c.max_var_used(), Some(1));
        let c = conj("[n] -> { [i,j] : i <= n }");
        assert_eq!(c.max_var_used(), Some(0));
        assert_eq!(c.var_sign_hint(0), -1); // upper bound on i
        let c = conj("[n] -> { [i,j] : i >= 5 }");
        assert_eq!(c.var_sign_hint(0), 1);
    }

    #[test]
    fn constraints_on_var_skips_strides() {
        let c = conj("[n] -> { [i,j] : 1 <= i <= n && exists(a : i = 2a) }");
        let cs = c.constraints_on_var(0);
        assert_eq!(cs.len(), 2);
    }

    #[test]
    fn gist_method_matches_function() {
        let a = conj("{ [i,j] : i >= 0 && j >= 0 }");
        let b = conj("{ [i,j] : i >= 0 }");
        let g = a.gist(&b);
        assert!(!g.uses_var(0));
        assert!(g.uses_var(1));
    }

    #[test]
    fn to_set_roundtrip() {
        let sp = Space::new(&["n"], &["i"]);
        let c = Conjunct::universe(&sp);
        assert!(c.to_set().is_universe());
        assert!(Conjunct::empty(&sp).to_set().is_empty());
    }
}
