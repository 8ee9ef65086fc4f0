//! Conjunctions of affine constraints with existential (local) variables —
//! the single-polyhedron building block of a [`crate::Set`].

use crate::coeffs::Coeffs;
use crate::linexpr::{Constraint, ConstraintKind, LinExpr};
use crate::num;
use crate::space::Space;
use std::fmt;

/// One affine row over the columns `[const | params | vars | locals]`.
///
/// Coefficients are stored inline ([`Coeffs`]) so a `Vec<Row>` keeps the
/// whole constraint system contiguous in memory — the sat/FM/gist loops
/// clone and scan rows without touching the allocator for typical widths.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct Row {
    pub(crate) kind: ConstraintKind,
    pub(crate) c: Coeffs,
}

impl Row {
    pub(crate) fn new(kind: ConstraintKind, c: impl Into<Coeffs>) -> Self {
        Row { kind, c: c.into() }
    }

    /// True if every non-constant coefficient is zero.
    pub(crate) fn is_constant(&self) -> bool {
        self.c[1..].iter().all(|&x| x == 0)
    }

    /// The order of rows in a canonical conjunct (and of tier 2's input):
    /// equalities first, then by coefficients, constant column first.
    pub(crate) fn canonical_cmp(&self, other: &Row) -> std::cmp::Ordering {
        (self.kind as u8, &self.c).cmp(&(other.kind as u8, &other.c))
    }

    /// For a constant row, whether it is trivially true.
    pub(crate) fn constant_truth(&self) -> bool {
        match self.kind {
            ConstraintKind::Eq => self.c[0] == 0,
            ConstraintKind::Geq => self.c[0] >= 0,
        }
    }

    /// Normalizes by the gcd of the non-constant coefficients. Returns
    /// `false` if the row became an obvious contradiction.
    pub(crate) fn normalize(&mut self) -> bool {
        let mut g = 0;
        for &x in &self.c[1..] {
            g = num::gcd(g, x);
            if g == 1 {
                // gcd can only shrink toward 1; nothing left to divide.
                return true;
            }
        }
        if g == 0 {
            // A false constant row survives as a canonical contradiction
            // marker; the caller sees the verdict either way.
            return self.constant_truth();
        }
        if g > 1 {
            match self.kind {
                ConstraintKind::Eq => {
                    if self.c[0] % g != 0 {
                        return false; // e.g. 2x + 1 = 0 has no integer solution
                    }
                    for x in &mut self.c {
                        *x /= g;
                    }
                }
                ConstraintKind::Geq => {
                    self.c[0] = num::floor_div(self.c[0], g);
                    for x in &mut self.c[1..] {
                        *x /= g;
                    }
                }
            }
        }
        true
    }
}

/// A conjunction of affine equalities and inequalities over a [`Space`],
/// possibly with existentially quantified *local* variables (Omega
/// "wildcards"), which encode stride/modulo constraints such as
/// `∃α: i = 4α + 1`.
///
/// A `Conjunct` is the "single conjunct" object the paper's AST fields are
/// required to hold.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Conjunct {
    space: Space,
    n_locals: usize,
    rows: Vec<Row>,
    /// Set when normalization discovered an obvious contradiction.
    known_false: bool,
}

impl Conjunct {
    /// The unconstrained conjunct (TRUE) over `space`.
    pub fn universe(space: &Space) -> Self {
        Conjunct {
            space: space.clone(),
            n_locals: 0,
            rows: Vec::new(),
            known_false: false,
        }
    }

    /// A canonical empty (FALSE) conjunct over `space`.
    pub fn empty(space: &Space) -> Self {
        Conjunct {
            space: space.clone(),
            n_locals: 0,
            rows: Vec::new(),
            known_false: true,
        }
    }

    /// Builds a conjunct from public [`Constraint`]s (no locals).
    ///
    /// # Panics
    ///
    /// Panics if any constraint belongs to a different space.
    pub fn from_constraints<I: IntoIterator<Item = Constraint>>(space: &Space, cons: I) -> Self {
        let mut c = Conjunct::universe(space);
        for k in cons {
            c.add_constraint(&k);
        }
        c
    }

    /// The space of this conjunct.
    pub fn space(&self) -> &Space {
        &self.space
    }

    /// Number of existential (local) variables.
    pub fn n_locals(&self) -> usize {
        self.n_locals
    }

    /// Number of constraint rows currently stored.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// True if this conjunct is syntactically TRUE (no rows, not marked
    /// false). A satisfiable conjunct with rows is *not* "universe".
    pub fn is_universe(&self) -> bool {
        !self.known_false && self.rows.is_empty()
    }

    /// True if normalization has already discovered a contradiction. A
    /// `false` result does **not** guarantee satisfiability — use
    /// [`Conjunct::is_sat`] for an exact answer.
    pub fn is_known_false(&self) -> bool {
        self.known_false
    }

    pub(crate) fn mark_false(&mut self) {
        self.known_false = true;
        self.rows.clear();
        self.n_locals = 0;
    }

    pub(crate) fn rows(&self) -> &[Row] {
        &self.rows
    }

    pub(crate) fn rows_mut(&mut self) -> &mut Vec<Row> {
        &mut self.rows
    }

    pub(crate) fn ncols(&self) -> usize {
        1 + self.space.n_named() + self.n_locals
    }

    pub(crate) fn local_col(&self, l: usize) -> usize {
        1 + self.space.n_named() + l
    }

    /// Column index of set variable `v`.
    pub(crate) fn var_col(&self, v: usize) -> usize {
        1 + self.space.n_params() + v
    }

    /// Adds a public (local-free) constraint.
    ///
    /// # Panics
    ///
    /// Panics if the constraint's space differs.
    pub fn add_constraint(&mut self, k: &Constraint) {
        assert_eq!(k.space(), &self.space, "space mismatch adding constraint");
        if self.known_false {
            return;
        }
        let mut c = k.expr().raw_coeffs().to_vec();
        c.resize(self.ncols(), 0);
        self.push_row(Row::new(k.kind(), c));
    }

    /// Adds a congruence `expr ≡ r (mod m)` by introducing a fresh local α
    /// with `expr - r - m·α = 0`.
    ///
    /// # Panics
    ///
    /// Panics if `m <= 0` or the expression's space differs.
    pub fn add_congruence(&mut self, expr: &LinExpr, r: i64, m: i64) {
        assert!(m > 0, "congruence modulus must be positive");
        assert_eq!(expr.space(), &self.space);
        if self.known_false {
            return;
        }
        let l = self.add_local();
        let mut c = expr.raw_coeffs().to_vec();
        c[0] = num::add(c[0], -r);
        c.resize(self.ncols(), 0);
        c[self.local_col(l)] = -m;
        self.push_row(Row::new(ConstraintKind::Eq, c));
    }

    /// Introduces a fresh local variable, returning its index.
    pub(crate) fn add_local(&mut self) -> usize {
        let idx = self.n_locals;
        self.n_locals += 1;
        for r in &mut self.rows {
            r.c.push(0);
        }
        idx
    }

    pub(crate) fn push_row(&mut self, mut row: Row) {
        if self.known_false {
            return;
        }
        debug_assert_eq!(row.c.len(), self.ncols());
        if !row.normalize() {
            self.mark_false();
            return;
        }
        if row.is_constant() {
            if !row.constant_truth() {
                self.mark_false();
            }
            return;
        }
        if !self.rows.contains(&row) {
            self.rows.push(row);
        }
    }

    /// Intersection with another conjunct over the same space (locals are
    /// kept separate).
    ///
    /// # Panics
    ///
    /// Panics if the spaces differ.
    pub fn intersect(&self, other: &Conjunct) -> Conjunct {
        assert_eq!(self.space, other.space, "space mismatch in intersect");
        if self.known_false || other.known_false {
            return Conjunct::empty(&self.space);
        }
        // `self`'s rows go in as they are, widened by `other`'s locals;
        // `other`'s rows follow through `push_row`, in order, each built
        // in place with its locals shifted past `self`'s.
        let named = 1 + self.space.n_named();
        let base = self.n_locals;
        let ncols = named + base + other.n_locals;
        let mut rows = Vec::with_capacity(self.rows.len() + other.rows.len());
        rows.extend(self.rows.iter().map(|r| {
            let mut c = Coeffs::zeros(ncols);
            c[..named + base].copy_from_slice(&r.c);
            Row { kind: r.kind, c }
        }));
        let mut out = Conjunct {
            space: self.space.clone(),
            n_locals: base + other.n_locals,
            rows,
            known_false: false,
        };
        for r in &other.rows {
            let mut c = Coeffs::zeros(ncols);
            c[..named].copy_from_slice(&r.c[..named]);
            c[named + base..].copy_from_slice(&r.c[named..]);
            out.push_row(Row { kind: r.kind, c });
        }
        out
    }

    /// `self ∧ rows` for local-free `rows` over the named columns, pushed
    /// in order: what [`Conjunct::intersect`] builds for a local-free
    /// conjunct holding exactly those rows.
    pub(crate) fn intersect_free<'r>(&self, rows: impl IntoIterator<Item = &'r Row>) -> Conjunct {
        if self.known_false {
            return Conjunct::empty(&self.space);
        }
        let mut out = self.clone();
        let named = 1 + self.space.n_named();
        for r in rows {
            let mut c = Coeffs::zeros(out.ncols());
            c[..named].copy_from_slice(&r.c[..named]);
            out.push_row(Row::new(r.kind, c));
        }
        out
    }

    /// Evaluates membership of a concrete point: true iff there exist
    /// integer values for the locals satisfying all rows. Exact except when
    /// a substituted constant exceeds the `i64` range on a row that still
    /// involves locals — then the answer degrades to a conservative `true`
    /// with [`crate::OmegaError::Overflow`] noted on the ambient certainty
    /// scope. Local-free rows are decided exactly in `i128` regardless.
    pub fn contains(&self, params: &[i64], vars: &[i64]) -> bool {
        assert_eq!(params.len(), self.space.n_params());
        assert_eq!(vars.len(), self.space.n_vars());
        if self.known_false {
            return false;
        }
        // Substitute the concrete values; remaining system is over locals only.
        let mut rows: Vec<Row> = Vec::with_capacity(self.rows.len());
        for r in &self.rows {
            let mut acc = r.c[0] as i128;
            for (i, &p) in params.iter().enumerate() {
                acc += r.c[1 + i] as i128 * p as i128;
            }
            for (i, &v) in vars.iter().enumerate() {
                acc += r.c[1 + params.len() + i] as i128 * v as i128;
            }
            let locals = &r.c[1 + self.space.n_named()..];
            let Ok(c0) = i64::try_from(acc) else {
                if locals.iter().all(|&x| x == 0) {
                    // Constant row: decide it exactly in i128.
                    let holds = match r.kind {
                        ConstraintKind::Eq => acc == 0,
                        ConstraintKind::Geq => acc >= 0,
                    };
                    if holds {
                        continue;
                    }
                    return false;
                }
                crate::limits::note(crate::limits::OmegaError::Overflow);
                return true;
            };
            let mut c = vec![c0];
            c.extend_from_slice(locals);
            rows.push(Row::new(r.kind, c));
        }
        crate::sat::rows_satisfiable(&rows, self.n_locals)
    }

    /// Exact satisfiability over integers (parameters treated
    /// existentially, as in Omega).
    pub fn is_sat(&self) -> bool {
        if self.known_false {
            return false;
        }
        crate::sat::rows_satisfiable(&self.rows, self.space.n_named() + self.n_locals)
    }

    /// Applies a column permutation/embedding: `map[j]` gives the new column
    /// of old column `j` (constant column must map to 0). Rows are rebuilt
    /// with `new_ncols` columns; unmapped new columns get coefficient 0.
    pub(crate) fn remap_columns(
        &self,
        new_space: &Space,
        new_n_locals: usize,
        map: &[usize],
    ) -> Conjunct {
        assert_eq!(map.len(), self.ncols());
        assert_eq!(map[0], 0);
        let new_ncols = 1 + new_space.n_named() + new_n_locals;
        let mut out = Conjunct {
            space: new_space.clone(),
            n_locals: new_n_locals,
            rows: Vec::new(),
            known_false: self.known_false,
        };
        if out.known_false {
            return out;
        }
        out.rows.reserve(self.rows.len());
        for r in &self.rows {
            let mut c = Coeffs::zeros(new_ncols);
            for (j, &x) in r.c.iter().enumerate() {
                if x != 0 {
                    c[map[j]] = num::add(c[map[j]], x);
                }
            }
            out.push_row(Row::new(r.kind, c));
        }
        out
    }

    /// Substitutes column `col` := `expr_cols` / 1 (an affine combination of
    /// the *other* columns, given over the full current column layout with
    /// `expr_cols[col] == 0`). All rows are updated in place.
    pub(crate) fn substitute_col(&mut self, col: usize, expr_cols: &[i64]) {
        assert_eq!(expr_cols.len(), self.ncols());
        assert_eq!(
            expr_cols[col], 0,
            "substitution must not be self-referential"
        );
        if self.known_false {
            return;
        }
        let rows = std::mem::take(&mut self.rows);
        for mut r in rows {
            let k = r.c[col];
            if k != 0 {
                r.c[col] = 0;
                for (j, &e) in expr_cols.iter().enumerate() {
                    if e != 0 {
                        r.c[j] = num::add(r.c[j], num::mul(k, e));
                    }
                }
            }
            self.push_row(r);
        }
    }

    /// Substitutes set variable `v` := affine `expr` over the named columns.
    ///
    /// # Panics
    ///
    /// Panics if `expr` mentions variable `v` itself or has a different space.
    pub fn substitute_var(&mut self, v: usize, expr: &LinExpr) {
        assert_eq!(expr.space(), &self.space);
        assert_eq!(
            expr.var_coeff(v),
            0,
            "substitution must not mention the variable"
        );
        let mut cols = expr.raw_coeffs().to_vec();
        cols.resize(self.ncols(), 0);
        let col = self.var_col(v);
        self.substitute_col(col, &cols);
    }

    /// Removes local variables that appear in no row.
    pub(crate) fn compress_locals(&mut self) {
        if self.known_false || self.n_locals == 0 {
            return;
        }
        let named = 1 + self.space.n_named();
        let mut used = vec![false; self.n_locals];
        for r in &self.rows {
            for (l, &x) in r.c[named..].iter().enumerate() {
                if x != 0 {
                    used[l] = true;
                }
            }
        }
        if used.iter().all(|&u| u) {
            return;
        }
        // Shift each used local's column down over the unused ones, in
        // place: a kept column never moves right.
        for r in &mut self.rows {
            let mut kept = 0;
            for (l, _) in used.iter().enumerate().filter(|&(_, &u)| u) {
                r.c[named + kept] = r.c[named + l];
                kept += 1;
            }
            r.c.resize(named + kept, 0);
        }
        self.n_locals = used.iter().filter(|&&u| u).count();
    }

    /// The public constraints of this conjunct that involve no locals,
    /// reconstructed as [`Constraint`] values.
    pub fn local_free_constraints(&self) -> Vec<Constraint> {
        let named = 1 + self.space.n_named();
        let mut out = Vec::new();
        for r in &self.rows {
            if r.c[named..].iter().all(|&x| x == 0) {
                let e = LinExpr::from_raw(&self.space, &r.c[..named]);
                out.push(match r.kind {
                    ConstraintKind::Eq => e.eq0(),
                    ConstraintKind::Geq => e.geq0(),
                });
            }
        }
        out
    }

    /// The congruence constraints of this conjunct: rows of the form
    /// `expr - m·α = 0` where local α appears in exactly that one row and the
    /// row has exactly one local. Returned as `(expr, modulus)` meaning
    /// `expr ≡ 0 (mod m)`, with `m > 1`.
    pub fn congruences(&self) -> Vec<(LinExpr, i64)> {
        let named = 1 + self.space.n_named();
        let mut uses = vec![0usize; self.n_locals];
        for r in &self.rows {
            for (l, &x) in r.c[named..].iter().enumerate() {
                if x != 0 {
                    uses[l] += 1;
                }
            }
        }
        let mut out = Vec::new();
        for r in &self.rows {
            if r.kind != ConstraintKind::Eq {
                continue;
            }
            let locals: Vec<usize> = (0..self.n_locals)
                .filter(|&l| r.c[named + l] != 0)
                .collect();
            if locals.len() == 1 && uses[locals[0]] == 1 {
                let m = r.c[named + locals[0]].abs();
                if m > 1 {
                    let e = LinExpr::from_raw(&self.space, &r.c[..named]);
                    out.push((e, m));
                }
            }
        }
        out
    }

    /// Converts the conjunct to a sorted canonical form for syntactic
    /// comparison and stable printing.
    pub(crate) fn canonicalize(&mut self) {
        self.canonicalize_congruence_rows();
        self.compress_locals();
        self.rows.sort_by(Row::canonical_cmp);
        self.rows.dedup();
    }

    /// Whether [`Conjunct::canonicalize`] would leave this conjunct as it
    /// is: rows strictly sorted (so distinct), every local used, and every
    /// pure congruence row already in its canonical form. This is the
    /// invariant of every conjunct a [`crate::Set`] holds. Allocates
    /// nothing.
    pub(crate) fn is_canonical(&self) -> bool {
        let named = 1 + self.space.n_named();
        self.rows
            .windows(2)
            .all(|w| w[0].canonical_cmp(&w[1]).is_lt())
            && (named..self.ncols()).all(|col| self.rows.iter().any(|r| r.c[col] != 0))
            && self.rows.iter().all(|r| {
                self.congruence_col(r).is_none_or(|col| {
                    let mut c = r.c.clone();
                    canonicalize_congruence(&mut c, named, col);
                    c == r.c
                })
            })
    }

    /// The column of `r`'s local if `r` is a pure congruence row of this
    /// conjunct (`expr + m·α = 0` with `|m| > 1`, α in no other row).
    fn congruence_col(&self, r: &Row) -> Option<usize> {
        if r.kind != ConstraintKind::Eq {
            return None;
        }
        let named = 1 + self.space.n_named();
        let mut locals = (named..r.c.len()).filter(|&col| r.c[col] != 0);
        let (Some(col), None) = (locals.next(), locals.next()) else {
            return None;
        };
        let used_once = self.rows.iter().filter(|s| s.c[col] != 0).count() == 1;
        (used_once && r.c[col].abs() > 1).then_some(col)
    }

    /// Rewrites each pure congruence row into its canonical form (see
    /// [`canonicalize_congruence`]). A rewrite changes no row's set of
    /// non-zero columns, so it cannot change which rows are pure
    /// congruences.
    fn canonicalize_congruence_rows(&mut self) {
        if self.n_locals == 0 {
            return;
        }
        let named = 1 + self.space.n_named();
        for i in 0..self.rows.len() {
            if let Some(col) = self.congruence_col(&self.rows[i]) {
                canonicalize_congruence(&mut self.rows[i].c, named, col);
            }
        }
    }
}

/// Rewrites the pure congruence row `c` (`expr + m·α = 0`, α at column
/// `col`) so that the local's coefficient is `-m` (`expr - m·α = 0`, i.e.
/// `expr ≡ 0 mod m`) and the constant is reduced into `[0, m)`, then
/// flips the row if its first non-zero named coefficient is negative.
fn canonicalize_congruence(c: &mut [i64], named: usize, col: usize) {
    let m = c[col].abs();
    if c[col] > 0 {
        for x in c.iter_mut() {
            *x = -*x;
        }
    }
    // Reduce the constant into [0, m): α absorbs the shift.
    c[0] = num::mod_floor(c[0], m);
    // Also flip globally if the first non-zero named coefficient is
    // negative (keeps e.g. `i ≡ 1 mod 4` stable) — only safe when the
    // constant is zero after reduction or we re-reduce.
    if c[1..named]
        .iter()
        .find(|&&x| x != 0)
        .is_some_and(|&x| x < 0)
    {
        for x in c.iter_mut() {
            *x = -*x;
        }
        c[0] = num::mod_floor(c[0], m);
    }
}

impl fmt::Display for Conjunct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.known_false {
            return write!(f, "FALSE");
        }
        if self.rows.is_empty() {
            return write!(f, "TRUE");
        }
        let named = 1 + self.space.n_named();
        let mut first = true;
        for r in &self.rows {
            if !first {
                write!(f, " && ")?;
            }
            first = false;
            // Render locals as `aK`.
            let mut s = String::new();
            let mut any = false;
            let push_term = |c: i64, name: &str, s: &mut String, any: &mut bool| {
                if c == 0 {
                    return;
                }
                if *any {
                    if c > 0 {
                        s.push_str(" + ");
                    } else {
                        s.push_str(" - ");
                    }
                    let a = c.abs();
                    if a != 1 {
                        s.push_str(&format!("{a}*"));
                    }
                    s.push_str(name);
                } else {
                    *any = true;
                    if c == 1 {
                        s.push_str(name);
                    } else if c == -1 {
                        s.push('-');
                        s.push_str(name);
                    } else {
                        s.push_str(&format!("{c}*"));
                        s.push_str(name);
                    }
                }
            };
            for v in 0..self.space.n_vars() {
                push_term(
                    r.c[1 + self.space.n_params() + v],
                    self.space.var_name(v),
                    &mut s,
                    &mut any,
                );
            }
            for p in 0..self.space.n_params() {
                push_term(r.c[1 + p], self.space.param_name(p), &mut s, &mut any);
            }
            for l in 0..self.n_locals {
                push_term(r.c[named + l], &format!("a{l}"), &mut s, &mut any);
            }
            let c0 = r.c[0];
            if !any {
                s.push_str(&c0.to_string());
            } else if c0 > 0 {
                s.push_str(&format!(" + {c0}"));
            } else if c0 < 0 {
                s.push_str(&format!(" - {}", -c0));
            }
            match r.kind {
                ConstraintKind::Eq => write!(f, "{s} = 0")?,
                ConstraintKind::Geq => write!(f, "{s} >= 0")?,
            }
        }
        Ok(())
    }
}

impl fmt::Debug for Conjunct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp() -> Space {
        Space::new(&["n"], &["i", "j"])
    }

    fn v(s: &Space, i: usize) -> LinExpr {
        LinExpr::var(s, i)
    }

    #[test]
    fn universe_and_empty() {
        let s = sp();
        assert!(Conjunct::universe(&s).is_universe());
        assert!(Conjunct::empty(&s).is_known_false());
        assert!(!Conjunct::empty(&s).is_sat());
        assert!(Conjunct::universe(&s).is_sat());
    }

    #[test]
    fn normalization_divides_gcd() {
        let s = sp();
        // 2i - 4 >= 0  →  i - 2 >= 0
        let mut c = Conjunct::universe(&s);
        c.add_constraint(&(v(&s, 0) * 2 - 4).geq0());
        assert_eq!(c.rows()[0].c[..4], [-2, 0, 1, 0]);
        // 3i - 4 >= 0  →  i - 2 >= 0 (floor tightening)
        let mut c = Conjunct::universe(&s);
        c.add_constraint(&(v(&s, 0) * 3 - 4).geq0());
        assert_eq!(c.rows()[0].c[..4], [-2, 0, 1, 0]);
    }

    #[test]
    fn integer_infeasible_equality_detected() {
        let s = sp();
        // 2i - 1 = 0 has no integer solution
        let mut c = Conjunct::universe(&s);
        c.add_constraint(&(v(&s, 0) * 2 - 1).eq0());
        assert!(c.is_known_false());
    }

    #[test]
    fn constant_rows_resolve() {
        let s = sp();
        let mut c = Conjunct::universe(&s);
        c.add_constraint(&LinExpr::constant(&s, 5).geq0());
        assert!(c.is_universe());
        c.add_constraint(&LinExpr::constant(&s, -1).geq0());
        assert!(c.is_known_false());
    }

    #[test]
    fn contains_simple_box() {
        let s = sp();
        let mut c = Conjunct::universe(&s);
        c.add_constraint(&v(&s, 0).geq0()); // i >= 0
        c.add_constraint(&v(&s, 0).leq(LinExpr::param(&s, 0) - 1)); // i < n
        assert!(c.contains(&[10], &[0, 99]));
        assert!(c.contains(&[10], &[9, -5]));
        assert!(!c.contains(&[10], &[10, 0]));
    }

    #[test]
    fn contains_with_stride() {
        let s = sp();
        let mut c = Conjunct::universe(&s);
        c.add_congruence(&v(&s, 0), 1, 4); // i ≡ 1 mod 4
        assert!(c.contains(&[0], &[1, 0]));
        assert!(c.contains(&[0], &[5, 0]));
        assert!(c.contains(&[0], &[-3, 0]));
        assert!(!c.contains(&[0], &[2, 0]));
    }

    #[test]
    fn intersect_merges_locals_independently() {
        let s = sp();
        let mut a = Conjunct::universe(&s);
        a.add_congruence(&v(&s, 0), 0, 2); // i even
        let mut b = Conjunct::universe(&s);
        b.add_congruence(&v(&s, 1), 0, 3); // j ≡ 0 mod 3
        let c = a.intersect(&b);
        assert_eq!(c.n_locals(), 2);
        assert!(c.contains(&[0], &[2, 3]));
        assert!(!c.contains(&[0], &[2, 4]));
        assert!(!c.contains(&[0], &[1, 3]));
    }

    #[test]
    fn substitute_var_interchange_style() {
        let s = sp();
        let mut c = Conjunct::universe(&s);
        // i <= j
        c.add_constraint(&v(&s, 0).leq(v(&s, 1)));
        // substitute i := n (degenerate loop value)
        c.substitute_var(0, &LinExpr::param(&s, 0));
        // now: n <= j
        assert!(c.contains(&[3], &[999, 3]));
        assert!(!c.contains(&[3], &[999, 2]));
    }

    #[test]
    fn congruences_extraction() {
        let s = sp();
        let mut c = Conjunct::universe(&s);
        c.add_congruence(&v(&s, 0), 1, 4);
        c.add_constraint(&v(&s, 1).geq0());
        let cg = c.congruences();
        assert_eq!(cg.len(), 1);
        assert_eq!(cg[0].1, 4);
    }

    #[test]
    fn canonicalize_reduces_congruence_constant() {
        let s = sp();
        let mut c = Conjunct::universe(&s);
        c.add_congruence(&v(&s, 0), 5, 4); // i ≡ 5 ≡ 1 (mod 4)
        c.canonicalize();
        let mut c2 = Conjunct::universe(&s);
        c2.add_congruence(&v(&s, 0), 1, 4);
        c2.canonicalize();
        assert_eq!(c, c2);
    }

    #[test]
    fn compress_locals_drops_unused() {
        let s = sp();
        let mut c = Conjunct::universe(&s);
        let _ = c.add_local();
        let _ = c.add_local();
        c.add_constraint(&v(&s, 0).geq0());
        c.compress_locals();
        assert_eq!(c.n_locals(), 0);
    }

    #[test]
    fn local_free_constraints_roundtrip() {
        let s = sp();
        let mut c = Conjunct::universe(&s);
        c.add_constraint(&v(&s, 0).geq0());
        c.add_congruence(&v(&s, 1), 0, 2);
        let lf = c.local_free_constraints();
        assert_eq!(lf.len(), 1);
        assert_eq!(lf[0].to_string(), "i >= 0");
    }

    #[test]
    fn display_is_readable() {
        let s = sp();
        let mut c = Conjunct::universe(&s);
        c.add_constraint(&(v(&s, 1) - 3).geq0());
        let txt = c.to_string();
        assert!(txt.contains("j - 3 >= 0"), "{txt}");
    }
}
