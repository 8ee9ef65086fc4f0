//! Unions of [`Conjunct`]s — the `Set` type mirroring an Omega relation in
//! disjunctive normal form.

use crate::coeffs::Coeffs;
use crate::conjunct::{Conjunct, Row};
use crate::linexpr::{Constraint, ConstraintKind, LinExpr};
use crate::sat::{self, KeySum};
use crate::space::Space;
use crate::stats::bump;
use std::borrow::Cow;
use std::fmt;

/// An integer set in disjunctive normal form: a union of [`Conjunct`]s over
/// a common [`Space`]. This corresponds to the Omega library's relations
/// restricted to sets (no input/output tuple distinction — mappings are
/// applied eagerly by the transformation framework).
///
/// # Examples
///
/// ```
/// use omega::Set;
/// let s = Set::parse("[n] -> { [i] : 1 <= i <= n && exists(a : i = 2a) }").unwrap();
/// assert!(s.contains(&[10], &[4]));
/// assert!(!s.contains(&[10], &[5]));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Set {
    space: Space,
    conjuncts: Vec<Conjunct>,
}

impl Set {
    /// The universal set over `space`.
    pub fn universe(space: &Space) -> Self {
        Set {
            space: space.clone(),
            conjuncts: vec![Conjunct::universe(space)],
        }
    }

    /// The empty set over `space`.
    pub fn empty(space: &Space) -> Self {
        Set {
            space: space.clone(),
            conjuncts: Vec::new(),
        }
    }

    /// A set holding a single conjunct.
    pub fn from_conjunct(c: Conjunct) -> Self {
        let space = c.space().clone();
        let mut s = Set {
            space,
            conjuncts: Vec::new(),
        };
        s.push_conjunct(c);
        s
    }

    /// A set defined by one conjunction of public constraints.
    pub fn from_constraints<I: IntoIterator<Item = Constraint>>(space: &Space, cons: I) -> Self {
        Set::from_conjunct(Conjunct::from_constraints(space, cons))
    }

    /// Parses the ISL-like textual syntax, e.g.
    /// `"[n] -> { [i,j] : 0 <= i < n && exists(a : i = 2a) }"`.
    ///
    /// # Errors
    ///
    /// Returns a [`crate::ParseSetError`] describing the first syntax error.
    pub fn parse(text: &str) -> Result<Set, crate::ParseSetError> {
        crate::parse::parse_set(text)
    }

    /// The space of this set.
    pub fn space(&self) -> &Space {
        &self.space
    }

    /// The conjuncts (disjuncts of the DNF).
    pub fn conjuncts(&self) -> &[Conjunct] {
        &self.conjuncts
    }

    /// If this set has exactly one conjunct, a reference to it.
    pub fn as_single_conjunct(&self) -> Option<&Conjunct> {
        if self.conjuncts.len() == 1 {
            Some(&self.conjuncts[0])
        } else {
            None
        }
    }

    /// True if the set is syntactically the universe.
    pub fn is_universe(&self) -> bool {
        self.conjuncts.iter().any(Conjunct::is_universe)
    }

    /// The only way a conjunct enters a set: canonicalized, and dropped if
    /// known false or already present. So every conjunct a `Set` holds is
    /// canonical, and operations that move conjuncts between sets
    /// ([`Set::union_with`]) need not canonicalize them again.
    pub(crate) fn push_conjunct(&mut self, mut c: Conjunct) {
        assert_eq!(c.space(), &self.space, "space mismatch in push_conjunct");
        if c.is_known_false() {
            return;
        }
        c.canonicalize();
        if !self.conjuncts.contains(&c) {
            self.conjuncts.push(c);
        }
    }

    /// Union with another set over the same space.
    ///
    /// # Panics
    ///
    /// Panics if the spaces differ.
    pub fn union(&self, other: &Set) -> Set {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// In-place [`Set::union`]: appends each conjunct of `other` that
    /// `self` lacks, in order. Both sets' conjuncts are canonical, so they
    /// are compared and copied as they are.
    ///
    /// # Panics
    ///
    /// Panics if the spaces differ.
    pub fn union_with(&mut self, other: &Set) {
        assert_eq!(self.space, other.space, "space mismatch in union");
        for c in &other.conjuncts {
            debug_assert!(!c.is_known_false() && c.is_canonical(), "{c}");
            if !self.conjuncts.contains(c) {
                self.conjuncts.push(c.clone());
            }
        }
    }

    /// Intersection with another set (cross product of conjuncts).
    ///
    /// # Panics
    ///
    /// Panics if the spaces differ.
    pub fn intersect(&self, other: &Set) -> Set {
        assert_eq!(self.space, other.space, "space mismatch in intersect");
        let mut out = Set::empty(&self.space);
        for a in &self.conjuncts {
            for b in &other.conjuncts {
                let c = a.intersect(b);
                if c.is_sat() {
                    out.push_conjunct(c);
                }
            }
        }
        out
    }

    /// Intersection with a single conjunct: [`Set::intersect`] with the
    /// one-conjunct set of `other`, without building that set. Each
    /// conjunct of `self` meets the borrowed `other` when it is canonical;
    /// otherwise `other` is canonicalized once, as a set would hold it, so
    /// every meet has the rows, and asks the solver the question, that it
    /// has in [`Set::intersect`].
    ///
    /// # Panics
    ///
    /// Panics if the spaces differ.
    pub fn intersect_conjunct(&self, other: &Conjunct) -> Set {
        assert_eq!(self.space, *other.space(), "space mismatch in intersect");
        let mut out = Set::empty(&self.space);
        if other.is_known_false() {
            return out;
        }
        let other = if other.is_canonical() {
            Cow::Borrowed(other)
        } else {
            let mut c = other.clone();
            c.canonicalize();
            Cow::Owned(c)
        };
        for a in &self.conjuncts {
            let c = a.intersect(&other);
            if c.is_sat() {
                out.push_conjunct(c);
            }
        }
        out
    }

    /// Intersection with a single constraint.
    pub fn intersect_constraint(&self, c: &Constraint) -> Set {
        self.intersect(&Set::from_constraints(&self.space, [c.clone()]))
    }

    /// Exact emptiness test.
    pub fn is_empty(&self) -> bool {
        self.conjuncts.iter().all(|c| !c.is_sat())
    }

    /// Exact membership test for a concrete point.
    pub fn contains(&self, params: &[i64], vars: &[i64]) -> bool {
        self.conjuncts.iter().any(|c| c.contains(params, vars))
    }

    /// Exact subset test: `self ⊆ other`.
    pub fn is_subset(&self, other: &Set) -> bool {
        self.subtract(other).is_empty()
    }

    /// Exact equality test as sets of integer points.
    pub fn same_set(&self, other: &Set) -> bool {
        self.is_subset(other) && other.is_subset(self)
    }

    /// Exact disjointness test.
    pub fn is_disjoint(&self, other: &Set) -> bool {
        self.intersect(other).is_empty()
    }

    /// Set difference `self \ other`.
    ///
    /// # Panics
    ///
    /// Panics if `other` contains an existential constraint group that is not
    /// a recognizable congruence/range pattern (cannot be complemented
    /// exactly). All sets produced by this crate's public operations satisfy
    /// the pattern; use [`Set::try_subtract`] when the operand may not.
    pub fn subtract(&self, other: &Set) -> Set {
        self.try_subtract(other).unwrap_or_else(|| {
            panic!("cannot complement an existential constraint group of {other}")
        })
    }

    /// [`Set::subtract`] returning `None` instead of panicking when `other`
    /// holds a non-complementable existential constraint group.
    ///
    /// Each conjunct `b` of `other` replaces every conjunct `a` of the
    /// running result by the non-empty `a ∧ piece` over the
    /// pairwise-disjoint pieces of `¬b`. Most such pairs are empty (about
    /// 95% in CLooG's Table 1 runs), so a pair without existential
    /// variables is keyed from per-row fingerprints and built only once
    /// the solver finds it satisfiable. The solver is asked exactly what
    /// building every pair and checking it would ask.
    pub fn try_subtract(&self, other: &Set) -> Option<Set> {
        assert_eq!(self.space, other.space, "space mismatch in subtract");
        let Some((first, rest)) = other.conjuncts.split_first() else {
            return Some(self.clone());
        };
        let mut buf = Vec::new();
        let mut out = self.minus_conjunct(first, &mut buf)?;
        for b in rest {
            out = out.minus_conjunct(b, &mut buf)?;
        }
        Some(out)
    }

    /// `self ∧ ¬b`: one step of [`Set::try_subtract`], piece by piece of
    /// `¬b` ([`Complement`]) and, for each, conjunct by conjunct of
    /// `self`. Each pair asks the question `a.intersect(piece).is_sat()`
    /// asks, over the same rows in the same order; a local-free pair is
    /// keyed through [`sat::Base`] without building it. `buf` is scratch
    /// for the systems of cache misses.
    fn minus_conjunct(&self, b: &Conjunct, buf: &mut Vec<Row>) -> Option<Set> {
        let neg = Complement::of(b)?;
        let mut minuends: Vec<Minuend<'_>> = self.conjuncts.iter().map(Minuend::new).collect();
        let mut out = Set::empty(&self.space);
        for piece in &neg.pieces {
            for m in &mut minuends {
                bump!(subtract_pairs);
                if let Some(c) = neg.meet(piece, m, buf) {
                    out.push_conjunct(c);
                }
            }
        }
        Some(out)
    }

    /// [`Set::is_subset`] returning `None` when the test cannot be decided
    /// exactly (non-complementable existential group in `other`).
    pub fn try_is_subset(&self, other: &Set) -> Option<bool> {
        Some(self.try_subtract(other)?.is_empty())
    }

    /// Complement `¬self` (over the whole space).
    ///
    /// # Panics
    ///
    /// Same non-complementable existential caveat as [`Set::subtract`].
    pub fn complement(&self) -> Set {
        Set::universe(&self.space).subtract(self)
    }

    /// Splits the set into pairwise-disjoint conjunct pieces covering the
    /// same points (the paper's preprocessing step before building the AST).
    pub fn make_disjoint(&self) -> Vec<Conjunct> {
        let mut pieces: Vec<Conjunct> = Vec::new();
        let mut seen: Vec<Conjunct> = Vec::new();
        for c in &self.conjuncts {
            // Subtract only the earlier conjuncts that actually overlap —
            // already-disjoint unions (the common case after index-set
            // splitting) pass through untouched.
            let mut fresh = Set::from_conjunct(c.clone());
            for prev in &seen {
                if fresh.conjuncts.iter().all(|f| !f.intersect(prev).is_sat()) {
                    continue;
                }
                fresh = fresh.subtract(&Set::from_conjunct(prev.clone()));
                if fresh.is_empty() {
                    break;
                }
            }
            for p in fresh.conjuncts {
                pieces.push(p);
            }
            seen.push(c.clone());
        }
        pieces
    }

    /// Existentially projects out the `count` set variables starting at
    /// `first`, keeping the space unchanged (the removed dimensions become
    /// unconstrained). This is the paper's `Project(IS, l_{k}..l_{m})`.
    pub fn project_out(&self, first: usize, count: usize) -> Set {
        crate::project::project_out(self, first, count)
    }

    /// Removes all existential (local) variables by over-approximation —
    /// the Omega `Approximate` operation used by `initAST`.
    pub fn approximate(&self) -> Set {
        crate::project::approximate(self)
    }

    /// Simplifies each conjunct (eliminates removable locals, drops redundant
    /// rows) and drops unsatisfiable conjuncts.
    pub fn simplify(&self) -> Set {
        let mut out = Set::empty(&self.space);
        for c in &self.conjuncts {
            if !c.is_sat() {
                continue;
            }
            let s = crate::project::simplify_conjunct(c);
            let s = crate::gist::drop_self_redundant(s);
            if s.is_sat() {
                out.push_conjunct(s);
            }
        }
        out
    }

    /// `Gist(self, context)`: constraints of `self` not already implied by
    /// `context`, satisfying `gist(self, ctx) ∧ ctx = self ∧ ctx`. Returns
    /// the canonical FALSE set if `self ∧ context` is empty. Includes the
    /// Omega+ strength reduction of modulo constraints.
    pub fn gist(&self, context: &Set) -> Set {
        crate::gist::gist(self, context)
    }

    /// An approximate single-conjunct hull of the union — every point of
    /// `self` satisfies the result, and stride (lattice) constraints common
    /// to all conjuncts are preserved (the Omega+ `Hull`).
    pub fn hull(&self) -> Conjunct {
        crate::hull::hull(self)
    }

    /// Re-expresses the set in `target` with old variable `v` becoming
    /// `target` variable `map[v]` (see [`Conjunct::remap_vars`]).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Conjunct::remap_vars`].
    pub fn remap_vars(&self, target: &Space, map: &[usize]) -> Set {
        let mut out = Set::empty(target);
        for c in &self.conjuncts {
            out.push_conjunct(c.remap_vars(target, map));
        }
        out
    }

    /// Substitutes set variable `v` by the affine `expr` in every conjunct
    /// (see [`Conjunct::substitute_var`]).
    ///
    /// # Panics
    ///
    /// Panics if `expr` mentions `v` or belongs to a different space.
    pub fn substitute_var(&self, v: usize, expr: &LinExpr) -> Set {
        let mut out = Set::empty(&self.space);
        for c in &self.conjuncts {
            let mut c = c.clone();
            c.substitute_var(v, expr);
            out.push_conjunct(c);
        }
        out
    }

    /// Translates set variable `v` by `delta` in every conjunct (the loop
    /// *shift* transformation; see [`Conjunct::translate_var`]).
    ///
    /// # Panics
    ///
    /// Panics if `delta` mentions `v` or belongs to a different space.
    pub fn translate_var(&self, v: usize, delta: &LinExpr) -> Set {
        let mut out = Set::empty(&self.space);
        for c in &self.conjuncts {
            out.push_conjunct(c.translate_var(v, delta));
        }
        out
    }

    /// Serializes the set in the input syntax accepted by [`Set::parse`],
    /// so sets can be written out and re-read exactly.
    ///
    /// # Examples
    ///
    /// ```
    /// use omega::Set;
    /// let s = Set::parse("[n] -> { [i] : 1 <= i <= n && exists(a : i = 2a) }").unwrap();
    /// let round = Set::parse(&s.to_input_syntax()).unwrap();
    /// assert!(round.same_set(&s));
    /// ```
    pub fn to_input_syntax(&self) -> String {
        let header = if self.space.n_params() > 0 {
            format!("[{}] -> ", self.space.param_names().join(","))
        } else {
            String::new()
        };
        let vars = self.space.var_names().join(",");
        if self.conjuncts.is_empty() {
            // Canonical empty set: an unsatisfiable constraint.
            return format!("{header}{{ [{vars}] : 0 = 1 }}");
        }
        let mut terms = Vec::new();
        for c in &self.conjuncts {
            terms.push(format!(
                "{header}{{ [{vars}] : {} }}",
                conjunct_to_syntax(c)
            ));
        }
        terms.join(" | ")
    }

    /// Enumerates the points of the set with each variable in
    /// `[lo[k], hi[k]]`, in lexicographic order. Intended for tests/oracles.
    pub fn enumerate(&self, params: &[i64], lo: &[i64], hi: &[i64]) -> Vec<Vec<i64>> {
        assert_eq!(lo.len(), self.space.n_vars());
        assert_eq!(hi.len(), self.space.n_vars());
        let mut out = Vec::new();
        let mut point = vec![0i64; self.space.n_vars()];
        self.enum_rec(params, lo, hi, 0, &mut point, &mut out);
        out
    }

    fn enum_rec(
        &self,
        params: &[i64],
        lo: &[i64],
        hi: &[i64],
        depth: usize,
        point: &mut Vec<i64>,
        out: &mut Vec<Vec<i64>>,
    ) {
        if depth == point.len() {
            if self.contains(params, point) {
                out.push(point.clone());
            }
            return;
        }
        for v in lo[depth]..=hi[depth] {
            point[depth] = v;
            self.enum_rec(params, lo, hi, depth + 1, point, out);
        }
    }
}

/// Renders one conjunct in the parser's input syntax: local-free rows as
/// comparisons, and all local-involving rows inside a single `exists`.
fn conjunct_to_syntax(c: &Conjunct) -> String {
    if c.is_known_false() {
        return "0 = 1".to_owned();
    }
    let space = c.space();
    let named = 1 + space.n_named();
    let render_row = |kind: ConstraintKind, row: &[i64]| -> String {
        let mut s = String::new();
        let mut any = false;
        let term = |c: i64, name: &str, s: &mut String, any: &mut bool| {
            if c == 0 {
                return;
            }
            if *any {
                s.push_str(if c > 0 { " + " } else { " - " });
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
                    s.push_str(&format!("-1*{name}"));
                } else {
                    s.push_str(&format!("{c}*{name}"));
                }
            }
        };
        for v in 0..space.n_vars() {
            term(
                row[1 + space.n_params() + v],
                space.var_name(v),
                &mut s,
                &mut any,
            );
        }
        for p in 0..space.n_params() {
            term(row[1 + p], space.param_name(p), &mut s, &mut any);
        }
        for l in 0..(row.len() - named) {
            term(row[named + l], &format!("__e{l}"), &mut s, &mut any);
        }
        let c0 = row[0];
        if !any {
            s.push_str(&c0.to_string());
        } else if c0 > 0 {
            s.push_str(&format!(" + {c0}"));
        } else if c0 < 0 {
            s.push_str(&format!(" - {}", -c0));
        }
        match kind {
            ConstraintKind::Eq => format!("{s} = 0"),
            ConstraintKind::Geq => format!("{s} >= 0"),
        }
    };
    let mut free_rows = Vec::new();
    let mut local_rows = Vec::new();
    for (kind, row) in c.rows_raw() {
        if row[named..].iter().all(|&x| x == 0) {
            free_rows.push(render_row(kind, row));
        } else {
            local_rows.push(render_row(kind, row));
        }
    }
    let mut parts = free_rows;
    if !local_rows.is_empty() {
        let names: Vec<String> = (0..c.n_locals()).map(|l| format!("__e{l}")).collect();
        parts.push(format!(
            "exists({} : {})",
            names.join(", "),
            local_rows.join(" && ")
        ));
    }
    if parts.is_empty() {
        "0 = 0".to_owned()
    } else {
        parts.join(" && ")
    }
}

/// The exact complement of a conjunct `b` as **pairwise-disjoint**
/// pieces over its atoms, `¬(c₁∧c₂∧…) = ¬c₁ ∪ (c₁∧¬c₂) ∪ (c₁∧c₂∧¬c₃) ∪
/// …`, in order, without building the local-free ones. Disjointness
/// matters: [`Set::make_disjoint`] forwards `a ∧ piece` directly, and a
/// scanner executing overlapping pieces would run statement instances
/// twice.
///
/// `b` is canonical, as every conjunct of a [`Set`] is: its rows are
/// normalized, distinct and sorted. [`atoms`] puts the local-free rows
/// first, so the local-free pieces come first, and the piece of row `k`
/// is `prefix[..k] ∧ ¬row`, held as `k` and the negated row. Each piece
/// is a canonical conjunct (the prefix is sorted, so the negated row
/// sorts into place), not known false, and distinct from the others. None
/// is sat-checked; [`Complement::meet`] checks `a ∧ piece`.
struct Complement {
    /// `b`'s local-free rows over the named columns, in `b`'s order.
    prefix: Vec<Row>,
    /// Each prefix row's fingerprint lane.
    lanes: Vec<(u64, u64)>,
    pieces: Vec<Piece>,
}

/// One piece of a [`Complement`].
enum Piece {
    /// `prefix[..k] ∧ neg`. `neg` holds the negated row, its lane and the
    /// position it sorts into in `prefix[..k]`; it is `None` when
    /// `prefix[..k]` already holds the row, and for the one piece
    /// (universe) of a known-false `b`.
    Free {
        k: usize,
        neg: Option<(Row, (u64, u64), usize)>,
    },
    /// A piece with locals (a congruence atom's complement, or a prefix
    /// holding one), built.
    Built(Conjunct),
}

/// One conjunct `a` of the running difference, and what the keyed path
/// of [`Complement::meet`] knows of it.
struct Minuend<'a> {
    a: &'a Conjunct,
    /// `None` when `a` has locals (or is known false): every pair is built.
    keyed: Option<Keyed<'a>>,
}

struct Keyed<'a> {
    base: sat::Base<'a>,
    /// The key sum of `a`'s rows plus the prefix rows `a` lacks, up to
    /// prefix row `done`.
    run: KeySum,
    done: usize,
}

impl<'a> Minuend<'a> {
    fn new(a: &'a Conjunct) -> Minuend<'a> {
        let keyed = (a.n_locals() == 0 && !a.is_known_false()).then(|| {
            let base = sat::Base::new(a.rows(), a.space().n_named());
            Keyed {
                run: base.sum(),
                base,
                done: 0,
            }
        });
        Minuend { a, keyed }
    }
}

impl Complement {
    /// The pieces of `¬b`, or `None` when a group of rows sharing a local
    /// variable does not match a congruence/range pattern. Those groups
    /// are checked first, so an uncomplementable `b` asks nothing.
    fn of(b: &Conjunct) -> Option<Complement> {
        // At most one prefix row and two pieces per row of `b`, plus the
        // pieces of its local groups.
        let mut out = Complement {
            prefix: Vec::with_capacity(b.n_rows()),
            lanes: Vec::with_capacity(b.n_rows()),
            pieces: Vec::with_capacity(2 * b.n_rows()),
        };
        if b.is_known_false() {
            out.pieces.push(Piece::Free { k: 0, neg: None });
            return Some(out);
        }
        let groups = local_groups(b)
            .into_iter()
            .map(|atom| Some((try_complement_atom(&atom)?, atom)))
            .collect::<Option<Vec<_>>>()?;
        let named = 1 + b.space().n_named();
        for r in b
            .rows()
            .iter()
            .filter(|r| r.c[named..].iter().all(|&x| x == 0))
        {
            let row = Row::new(r.kind, &r.c[..named]);
            let k = out.prefix.len();
            // ¬(e >= 0) ≡ -e - 1 >= 0;  ¬(e = 0) ≡ e - 1 >= 0 ∨ -e - 1 >= 0
            let signs: &[i64] = match r.kind {
                ConstraintKind::Geq => &[-1],
                ConstraintKind::Eq => &[1, -1],
            };
            for &sign in signs {
                let mut c: Coeffs = row.c.iter().map(|&x| sign * x).collect();
                c[0] -= 1;
                let n = Row::new(ConstraintKind::Geq, c);
                let at = out.prefix.partition_point(|p| p.canonical_cmp(&n).is_lt());
                // Only an inequality's negation can already be in the
                // prefix: equalities sort before every inequality, so the
                // two pieces of an equality never coincide.
                let neg = (out.prefix.get(at) != Some(&n)).then(|| {
                    let lane = sat::row_lane(&n);
                    (n, lane, at)
                });
                out.pieces.push(Piece::Free { k, neg });
            }
            debug_assert!(out
                .prefix
                .last()
                .is_none_or(|p| p.canonical_cmp(&row).is_lt()));
            out.lanes.push(sat::row_lane(&row));
            out.prefix.push(row);
        }
        if !groups.is_empty() {
            let mut prefix = Conjunct::universe(b.space()).intersect_free(&out.prefix);
            let mut built: Vec<Conjunct> = Vec::new();
            for (negs, atom) in groups {
                for piece in negs {
                    let mut c = prefix.intersect(&piece);
                    c.canonicalize();
                    if !c.is_known_false() && !built.contains(&c) {
                        built.push(c.clone());
                        out.pieces.push(Piece::Built(c));
                    }
                }
                prefix = prefix.intersect(&atom);
            }
        }
        Some(out)
    }

    /// The rows of local-free piece `prefix[..k] ∧ neg` in canonical
    /// order, with their lanes.
    fn free_rows<'s>(
        &'s self,
        k: usize,
        neg: Option<&'s (Row, (u64, u64), usize)>,
    ) -> impl Iterator<Item = (&'s Row, (u64, u64))> + 's {
        let at = neg.map_or(k, |&(_, _, at)| at);
        let prefix = |range: std::ops::Range<usize>| {
            self.prefix[range.clone()]
                .iter()
                .zip(self.lanes[range].iter().copied())
        };
        prefix(0..at)
            .chain(neg.map(|(n, lane, _)| (n, *lane)))
            .chain(prefix(at..k))
    }

    /// `a ∧ piece` if it is satisfiable, for `m`'s conjunct `a`. Asks the
    /// question `a.intersect(piece).is_sat()` asks: a local-free pair is
    /// keyed from `a`'s lanes, the running sum of the prefix rows `a`
    /// lacks and the negated row's lane, and its rows are written into
    /// `buf` only on a cache miss; any other pair is built first.
    fn meet(&self, piece: &Piece, m: &mut Minuend<'_>, buf: &mut Vec<Row>) -> Option<Conjunct> {
        let known_sat = match (piece, &mut m.keyed) {
            (&Piece::Free { k, ref neg }, Some(keyed)) => {
                for j in keyed.done..k {
                    if !keyed.base.has(&self.prefix[j], self.lanes[j]) {
                        keyed.run.add(self.lanes[j]);
                    }
                }
                keyed.done = keyed.done.max(k);
                let mut sum = keyed.run;
                if let Some((n, lane, _)) = neg {
                    if !keyed.base.has(n, *lane) {
                        sum.add(*lane);
                    }
                }
                if !keyed
                    .base
                    .sat_with(sum, buf, self.free_rows(k, neg.as_ref()))
                {
                    return None;
                }
                true
            }
            _ => false,
        };
        bump!(subtract_built);
        let c = match piece {
            Piece::Free { k, neg } => {
                m.a.intersect_free(self.free_rows(*k, neg.as_ref()).map(|(r, _)| r))
            }
            Piece::Built(piece) => m.a.intersect(piece),
        };
        (known_sat || c.is_sat()).then_some(c)
    }
}

/// Decomposes a conjunct into "atoms": maximal groups of rows connected by
/// shared local variables. Local-free rows are singleton atoms, in row
/// order, followed by the groups of [`local_groups`].
pub(crate) fn atoms(c: &Conjunct) -> Vec<Conjunct> {
    let named = 1 + c.space().n_named();
    let mut out = Vec::with_capacity(c.n_rows());
    for r in c.rows() {
        if r.c[named..].iter().all(|&x| x == 0) {
            let mut a = Conjunct::universe(c.space());
            a.push_row(Row::new(r.kind, &r.c[..named]));
            out.push(a);
        }
    }
    out.extend(local_groups(c));
    out
}

/// [`atoms`] of `c` that are not among `known`'s atoms, in order, without
/// building an atom for a local-free row that `known` holds too. `None`
/// when an atom of `c` would be universe or empty (a constant or
/// infeasible row), which only comparing whole atoms handles. Neither
/// conjunct may be known false.
pub(crate) fn atoms_not_in(c: &Conjunct, known: &Conjunct) -> Option<Vec<Conjunct>> {
    let named = 1 + c.space().n_named();
    fn free(x: &Conjunct, named: usize) -> impl Iterator<Item = &Row> {
        x.rows()
            .iter()
            .filter(move |r| r.c[named..].iter().all(|&v| v == 0))
    }
    let known_rows: Vec<Row> = free(known, named)
        .filter_map(|k| free_atom_row(k, named))
        .collect();
    let mut out = Vec::new();
    for r in free(c, named) {
        // A singleton with a row never equals a group atom, which has
        // locals or is empty.
        let row = free_atom_row(r, named)?;
        if known_rows.contains(&row) {
            continue;
        }
        let mut a = Conjunct::universe(c.space());
        a.rows_mut().push(row);
        out.push(a);
    }
    let groups = local_groups(c);
    if groups.iter().any(Conjunct::is_known_false) {
        return None;
    }
    if !groups.is_empty() {
        let known_groups = local_groups(known);
        out.extend(groups.into_iter().filter(|g| !known_groups.contains(g)));
    }
    Some(out)
}

/// The row of the singleton atom [`atoms`] builds from the local-free row
/// `r`, normalized as `push_row` does it; `None` when that atom has no row
/// (a constant row makes it universe or empty).
fn free_atom_row(r: &Row, named: usize) -> Option<Row> {
    let mut row = Row::new(r.kind, &r.c[..named]);
    (row.normalize() && !row.is_constant()).then_some(row)
}

/// The atoms of `c` that have locals: maximal groups of rows connected by
/// shared local variables, in the order of their first rows, each with its
/// rows in row order and its locals compacted.
pub(crate) fn local_groups(c: &Conjunct) -> Vec<Conjunct> {
    let named = 1 + c.space().n_named();
    let nl = c.n_locals();
    if nl == 0 {
        return Vec::new();
    }
    fn locals(r: &Row, named: usize, nl: usize) -> impl Iterator<Item = usize> + '_ {
        (0..nl).filter(move |&l| r.c[named + l] != 0)
    }
    // Union-find over locals.
    let mut parent: Vec<usize> = (0..nl).collect();
    fn find(p: &mut [usize], i: usize) -> usize {
        if p[i] != i {
            let r = find(p, p[i]);
            p[i] = r;
            r
        } else {
            i
        }
    }
    for r in c.rows() {
        let mut ls = locals(r, named, nl);
        let Some(mut prev) = ls.next() else {
            continue;
        };
        for l in ls {
            let (a, b) = (find(&mut parent, prev), find(&mut parent, l));
            if a != b {
                parent[a] = b;
            }
            prev = l;
        }
    }
    // A row's group is the root of its locals.
    let root: Vec<usize> = (0..nl).map(|l| find(&mut parent, l)).collect();
    let group_of = |r: &Row| locals(r, named, nl).next().map(|l| root[l]);
    let mut groups: Vec<usize> = Vec::new();
    for g in c.rows().iter().filter_map(group_of) {
        if !groups.contains(&g) {
            groups.push(g);
        }
    }
    let mut out = Vec::with_capacity(groups.len());
    for g in groups {
        let group = || c.rows().iter().filter(move |r| group_of(r) == Some(g));
        // The locals this group uses, compacted in order.
        let used: Vec<usize> = (0..nl)
            .filter(|&l| group().any(|r| r.c[named + l] != 0))
            .collect();
        let mut a = Conjunct::universe(c.space());
        for _ in 0..used.len() {
            a.add_local();
        }
        for r in group() {
            let mut row = Coeffs::zeros(named + used.len());
            row[..named].copy_from_slice(&r.c[..named]);
            for (k, &l) in used.iter().enumerate() {
                row[named + k] = r.c[named + l];
            }
            a.push_row(Row::new(r.kind, row));
        }
        out.push(a);
    }
    out
}

/// Exact complement of a single atom, as a list of conjuncts, or `None` for
/// existential atoms not matching a congruence/range pattern.
pub(crate) fn try_complement_atom(atom: &Conjunct) -> Option<Vec<Conjunct>> {
    let space = atom.space().clone();
    let named = 1 + space.n_named();
    if atom.n_locals() == 0 {
        let mut out = Vec::new();
        for r in atom.rows() {
            match r.kind {
                ConstraintKind::Geq => {
                    // ¬(e >= 0) ≡ -e - 1 >= 0
                    let mut c = Conjunct::universe(&space);
                    let mut neg: Vec<i64> = r.c.iter().map(|&x| -x).collect();
                    neg[0] -= 1;
                    c.push_row(Row::new(ConstraintKind::Geq, neg));
                    out.push(c);
                }
                ConstraintKind::Eq => {
                    // ¬(e = 0) ≡ e - 1 >= 0 ∨ -e - 1 >= 0
                    let mut lo = Conjunct::universe(&space);
                    let mut c1 = r.c.clone();
                    c1[0] -= 1;
                    lo.push_row(Row::new(ConstraintKind::Geq, c1));
                    out.push(lo);
                    let mut hi = Conjunct::universe(&space);
                    let mut c2: Vec<i64> = r.c.iter().map(|&x| -x).collect();
                    c2[0] -= 1;
                    hi.push_row(Row::new(ConstraintKind::Geq, c2));
                    out.push(hi);
                }
            }
        }
        return Some(out);
    }
    // Existential atom: must be a single local in a congruence or
    // range pattern:  lo <= e - m·α <= hi  (with width hi - lo < m).
    let RangeMod { expr, m, lo, hi } = range_mod_pattern(atom)?;
    // Complement: hi+1 <= e - m·α <= lo+m-1  (the residues not covered).
    let mut c = Conjunct::universe(&space);
    let l = c.add_local();
    let lc = named; // single fresh local sits right after named cols
    debug_assert_eq!(l, 0);
    let mut low = vec![0i64; named + 1];
    low[..named].copy_from_slice(&expr);
    low[0] -= hi + 1;
    low[lc] = -m;
    c.push_row(Row::new(ConstraintKind::Geq, low)); // e - mα - (hi+1) >= 0
    let mut up = vec![0i64; named + 1];
    for (j, &x) in expr.iter().enumerate() {
        up[j] = -x;
    }
    up[0] += lo + m - 1;
    up[lc] = m;
    c.push_row(Row::new(ConstraintKind::Geq, up)); // (lo+m-1) - (e - mα) >= 0
    Some(vec![c])
}

/// `lo <= expr - m·α <= hi` over a single local α (an equality means
/// `lo == hi`). `expr` is over the named columns.
pub(crate) struct RangeMod {
    pub(crate) expr: Vec<i64>,
    pub(crate) m: i64,
    pub(crate) lo: i64,
    pub(crate) hi: i64,
}

/// Recognizes a single-local atom of the congruence/range form.
pub(crate) fn range_mod_pattern(atom: &Conjunct) -> Option<RangeMod> {
    if atom.n_locals() != 1 {
        return None;
    }
    let named = 1 + atom.space().n_named();
    let lc = named;
    // Case 1: single equality row  e - m·α = 0 → lo = hi = 0 over e.
    if atom.rows().len() == 1 && atom.rows()[0].kind == ConstraintKind::Eq {
        let r = &atom.rows()[0];
        let mcoef = r.c[lc];
        if mcoef == 0 {
            return None;
        }
        let mut expr = r.c[..named].to_vec();
        let mut m = -mcoef;
        if m < 0 {
            m = -m;
            for x in &mut expr {
                *x = -*x;
            }
        }
        return Some(RangeMod {
            expr,
            m,
            lo: 0,
            hi: 0,
        });
    }
    // Case 2: two inequalities  e - m·α - lo >= 0  and  -(e - m·α) + hi >= 0.
    if atom.rows().len() == 2 && atom.rows().iter().all(|r| r.kind == ConstraintKind::Geq) {
        let (a, b) = (&atom.rows()[0], &atom.rows()[1]);
        // They must be negatives of each other on all non-constant columns.
        let opposite = a.c[1..].iter().zip(b.c[1..].iter()).all(|(&x, &y)| x == -y);
        if !opposite || a.c[lc] == 0 {
            return None;
        }
        let (lo_row, hi_row) = if a.c[lc] < 0 { (a, b) } else { (b, a) };
        // lo_row: e - mα - lo >= 0 (α coeff negative). hi_row: -(e-mα) + hi >= 0.
        let m = -lo_row.c[lc];
        let expr: Vec<i64> = {
            let mut e = lo_row.c[..named].to_vec();
            e[0] = 0;
            e
        };
        let lo = -lo_row.c[0];
        let hi = hi_row.c[0];
        if hi - lo >= m || hi < lo {
            return None; // covers everything or empty — not a clean pattern
        }
        return Some(RangeMod { expr, m, lo, hi });
    }
    None
}

impl fmt::Display for Set {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.conjuncts.is_empty() {
            return write!(f, "FALSE");
        }
        let mut first = true;
        for c in &self.conjuncts {
            if !first {
                write!(f, " | ")?;
            }
            first = false;
            write!(f, "{{{c}}}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Set {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Convenience: a [`LinExpr`] builder bound to a space (used pervasively in
/// tests and recipes).
pub fn var(space: &Space, i: usize) -> LinExpr {
    LinExpr::var(space, i)
}

/// Convenience: parameter `i` of `space` as a [`LinExpr`].
pub fn param(space: &Space, i: usize) -> LinExpr {
    LinExpr::param(space, i)
}

/// Convenience: constant expression over `space`.
pub fn constant(space: &Space, c: i64) -> LinExpr {
    LinExpr::constant(space, c)
}

/// Differential suite for the keyed [`Set::try_subtract`]: against the
/// loop it replaced, which built `¬b` and every `a ∧ piece` before
/// sat-checking, it must return the same conjuncts in the same order and
/// ask the same sat questions in the same order. Questions are compared
/// as the shape of a trace recorded from an empty sat cache: one
/// `sat_query` span per question with its row count, the tier that
/// answered and the verdict, and the key of every exact solve. The trace
/// is per thread, so unlike the process-wide `omega::stats` counters it
/// cannot pick up the work of tests running beside this one.
#[cfg(test)]
mod subtract_differential {
    use super::*;
    use crate::trace::{self, Collector};
    use proptest::prelude::*;

    /// The difference as it was computed before pieces were keyed.
    fn subtract_by_building(s: &Set, other: &Set) -> Option<Set> {
        let mut out = s.clone();
        for b in &other.conjuncts {
            out = minus_by_building(&out, b)?;
        }
        Some(out)
    }

    fn minus_by_building(s: &Set, b: &Conjunct) -> Option<Set> {
        let neg = complement_by_building(b)?;
        let mut out = Set::empty(&s.space);
        for piece in &neg.conjuncts {
            for a in &s.conjuncts {
                let c = a.intersect(piece);
                if c.is_sat() {
                    out.push_conjunct(c);
                }
            }
        }
        Some(out)
    }

    fn complement_by_building(c: &Conjunct) -> Option<Set> {
        let space = c.space().clone();
        if c.is_known_false() {
            return Some(Set::universe(&space));
        }
        let mut out = Set::empty(&space);
        let mut prefix = Conjunct::universe(&space);
        for atom in atoms(c) {
            let neg = try_complement_atom(&atom)?;
            for piece in neg {
                out.push_conjunct(prefix.intersect(&piece));
            }
            prefix = prefix.intersect(&atom);
        }
        Some(out)
    }

    /// Held across each comparison: a test that empties the cache while
    /// another is between its two runs would change the other's hits.
    pub(super) static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// `f`'s result and the shape of its trace, run from an empty cache.
    pub(super) fn traced<T>(f: impl FnOnce() -> T) -> (T, String) {
        crate::reset_sat_cache();
        let c = Collector::new();
        let out = trace::with_collector(Some(c.clone()), f);
        (out, c.finish().shape())
    }

    /// `minuend \ ¬b` per conjunct `b`, keyed and by building, must agree
    /// on the result and on every question asked.
    fn check_minus(minuend: &Set, subtrahend: &[Conjunct]) -> Result<(), TestCaseError> {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let (want, want_trace) = traced(|| {
            subtrahend
                .iter()
                .try_fold(minuend.clone(), |s, b| minus_by_building(&s, b))
        });
        let (got, got_trace) = traced(|| {
            let mut buf = Vec::new();
            subtrahend
                .iter()
                .try_fold(minuend.clone(), |s, b| s.minus_conjunct(b, &mut buf))
        });
        prop_assert_eq!(&got, &want, "{} minus {:?}", minuend, subtrahend);
        prop_assert!(
            got_trace == want_trace,
            "{minuend} minus {subtrahend:?}: questions differ\nkeyed:\n{got_trace}\nbuilt:\n{want_trace}"
        );
        Ok(())
    }

    fn check(a: &Set, b: &Set) -> Result<(), TestCaseError> {
        check_minus(a, &b.conjuncts)?;
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let (want, want_trace) = traced(|| subtract_by_building(a, b));
        let (got, got_trace) = traced(|| a.try_subtract(b));
        prop_assert_eq!(&got, &want, "{} minus {}", a, b);
        prop_assert!(got_trace == want_trace, "{a} minus {b}: questions differ");
        Ok(())
    }

    /// Two parameters no row mentions widen every system by two zero
    /// columns, so no other test's queries share this suite's keys.
    fn sp() -> Space {
        Space::new(&["n", "unused0", "unused1"], &["i", "j"])
    }

    /// `c0 + c1*n + c2*i + c3*j` as a row of `kind`.
    fn row(kind: ConstraintKind, c: [i64; 4]) -> Constraint {
        let e = LinExpr::from_raw(&sp(), &[c[0], c[1], 0, 0, c[2], c[3]]);
        match kind {
            ConstraintKind::Eq => e.eq0(),
            ConstraintKind::Geq => e.geq0(),
        }
    }

    fn geq(c: [i64; 4]) -> Constraint {
        row(ConstraintKind::Geq, c)
    }

    fn set(conjuncts: &[&[Constraint]]) -> Set {
        let mut s = Set::empty(&sp());
        for cons in conjuncts {
            s.push_conjunct(Conjunct::from_constraints(&sp(), cons.iter().cloned()));
        }
        s
    }

    /// Small coefficients, so rows repeat and negate each other often.
    fn arb_row() -> impl Strategy<Value = Constraint> {
        (
            prop::bool::weighted(0.2),
            -3i64..=3,
            -1i64..=1,
            -1i64..=1,
            -1i64..=1,
        )
            .prop_map(|(eq, c0, n, i, j)| {
                let kind = if eq {
                    ConstraintKind::Eq
                } else {
                    ConstraintKind::Geq
                };
                row(kind, [c0, n, i, j])
            })
    }

    /// A conjunct of random rows, plus a congruence `e ≡ r (mod m)` with
    /// probability `with_stride`.
    fn arb_conjunct(with_stride: f64) -> impl Strategy<Value = Conjunct> {
        (
            prop::collection::vec(arb_row(), 0..6),
            prop::option::weighted(
                with_stride,
                (-1i64..=1, 1i64..=1, -1i64..=1, 0i64..=3, 2i64..=4),
            ),
        )
            .prop_map(|(rows, stride)| {
                let mut c = Conjunct::from_constraints(&sp(), rows);
                if let Some((n, i, j, r, m)) = stride {
                    c.add_congruence(&LinExpr::from_raw(&sp(), &[0, n, 0, 0, i, j]), r, m);
                }
                c
            })
    }

    fn arb_set(with_stride: f64) -> impl Strategy<Value = Set> {
        prop::collection::vec(arb_conjunct(with_stride), 1..4).prop_map(|cs| {
            let mut s = Set::empty(&sp());
            for c in cs {
                s.push_conjunct(c);
            }
            s
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn keyed_subtract_matches_building_on_local_free_sets(
            a in arb_set(0.0),
            b in arb_set(0.0),
        ) {
            check(&a, &b)?;
        }

        #[test]
        fn keyed_subtract_matches_building_with_congruences(
            a in arb_set(0.3),
            b in arb_set(0.6),
        ) {
            check(&a, &b)?;
        }
    }

    #[test]
    fn negated_row_already_in_the_minuend() {
        // ¬(i >= 3) is 2 - i >= 0, a row of `a`: the piece adds no row.
        let a = set(&[&[geq([0, 0, 1, 0]), geq([2, 0, -1, 0]), geq([0, 0, 0, 1])]]);
        let b = set(&[&[geq([-3, 0, 1, 0]), geq([-1, 0, 0, 1])]]);
        check(&a, &b).unwrap();
        assert_eq!(a.subtract(&b), a);
    }

    #[test]
    fn negated_row_equal_to_an_earlier_row_of_the_subtrahend() {
        // b = {i >= 5, i <= 4}: ¬(4 - i >= 0) is i - 5 >= 0, b's first row,
        // so the second piece is the prefix alone.
        let b = set(&[&[geq([-5, 0, 1, 0]), geq([4, 0, -1, 0])]]);
        let neg = Complement::of(&b.conjuncts[0]).unwrap();
        assert!(matches!(
            neg.pieces[..],
            [
                Piece::Free { k: 0, neg: Some(_) },
                Piece::Free { k: 1, neg: None }
            ]
        ));
        let a = set(&[&[geq([0, 0, 1, 0]), geq([9, 0, -1, 0])]]);
        check(&a, &b).unwrap();
        for i in 0..=9 {
            assert!(a.subtract(&b).contains(&[0, 0, 0], &[i, 0]));
        }
    }

    #[test]
    fn equality_row_gives_two_pieces() {
        let b = set(&[&[row(ConstraintKind::Eq, [0, 0, 1, -1])]]);
        let neg = Complement::of(&b.conjuncts[0]).unwrap();
        assert_eq!(neg.pieces.len(), 2);
        let a = set(&[&[
            geq([0, 0, 1, 0]),
            geq([3, 0, -1, 0]),
            geq([0, 0, 0, 1]),
            geq([3, 0, 0, -1]),
        ]]);
        check(&a, &b).unwrap();
        let d = a.subtract(&b);
        for (i, j) in (0..=3).flat_map(|i| (0..=3).map(move |j| (i, j))) {
            assert_eq!(d.contains(&[0, 0, 0], &[i, j]), i != j, "({i}, {j})");
        }
        // Rows equal to the equality's negations come after it in `b`, so
        // they are no prefix of its pieces; their own negations are.
        let b = set(&[&[
            geq([-1, 0, 1, -1]),
            row(ConstraintKind::Eq, [0, 0, 1, -1]),
            geq([-1, 0, -1, 1]),
        ]]);
        let neg = Complement::of(&b.conjuncts[0]).unwrap();
        assert!(matches!(
            neg.pieces[..],
            [
                Piece::Free { k: 0, neg: Some(_) },
                Piece::Free { k: 0, neg: Some(_) },
                Piece::Free { k: 1, neg: Some(_) },
                Piece::Free { k: 2, neg: Some(_) },
            ]
        ));
        check(&a, &b).unwrap();
    }

    #[test]
    fn universe_minuend() {
        // The universe has no rows: only the piece's rows key the query.
        let u = Set::universe(&sp());
        let b = set(&[
            &[geq([0, 0, 1, 0]), geq([-2, 1, -1, 0])],
            &[geq([0, 0, 0, 1])],
        ]);
        check(&u, &b).unwrap();
        assert!(u.subtract(&b).union(&b).same_set(&u));
        // Universe minus universe: the one piece set is empty.
        check(&u, &u).unwrap();
        assert!(u.subtract(&u).is_empty());
    }

    #[test]
    fn known_false_minuend_or_subtrahend() {
        let s = sp();
        let a = set(&[&[geq([0, 0, 1, 0]), geq([3, 0, -1, 0])]]);
        // ¬FALSE is the universe: one piece, which keeps `a` whole and
        // asks about each conjunct of `a` as is.
        let neg = Complement::of(&Conjunct::empty(&s)).unwrap();
        assert!(matches!(neg.pieces[..], [Piece::Free { k: 0, neg: None }]));
        check_minus(&a, &[Conjunct::empty(&s)]).unwrap();
        check_minus(&Set::universe(&s), &[Conjunct::empty(&s)]).unwrap();
        let d = a.minus_conjunct(&Conjunct::empty(&s), &mut Vec::new());
        assert_eq!(d, Some(a.clone()));
        // A known-false conjunct among the minuends yields nothing.
        let with_false = Set {
            space: s.clone(),
            conjuncts: vec![Conjunct::empty(&s), a.conjuncts[0].clone()],
        };
        check_minus(&with_false, &set(&[&[geq([-1, 0, 1, 0])]]).conjuncts).unwrap();
        check_minus(&with_false, &[Conjunct::empty(&s)]).unwrap();
        // Through the public API a contradiction is an empty set.
        let mut contradiction = Conjunct::universe(&s);
        contradiction.add_constraint(&row(ConstraintKind::Eq, [-1, 0, 2, 0]));
        assert!(contradiction.is_known_false());
        let empty = Set::from_conjunct(contradiction);
        check(&a, &empty).unwrap();
        check(&empty, &a).unwrap();
    }
}

/// The invariant the set layer's borrowing rests on: a conjunct enters a
/// [`Set`] only through `push_conjunct`, canonicalized, so every conjunct
/// a set returns is canonical and distinct, and [`Set::union_with`] and
/// [`Set::intersect_conjunct`] can compare and meet conjuncts as they
/// are. Conjuncts come from [`crate::arbitrary`] plus the non-canonical
/// shapes scanners build: congruence rows with either sign on the local
/// and unreduced residues, unused locals, and rows in generation order.
#[cfg(test)]
mod canonical_invariant {
    use super::subtract_differential::{traced, SERIAL};
    use super::*;
    use crate::arbitrary::{arb_conjunct, ArbConfig, Rng};
    use proptest::prelude::*;

    /// Three parameters no row mentions keep this suite's sat keys apart
    /// from other tests' while it empties the cache.
    fn sp() -> Space {
        Space::new(&["n", "unused0", "unused1", "unused2"], &["i", "j"])
    }

    /// A random conjunct, most likely not canonical.
    fn noncanonical(rng: &mut Rng) -> Conjunct {
        let s = sp();
        let cfg = ArbConfig {
            stride_pct: 70,
            ..ArbConfig::default()
        };
        let arb = arb_conjunct(rng, &s, &cfg);
        let mut c = Conjunct::universe(&s);
        for k in &arb.constraints {
            c.add_constraint(k);
        }
        let named = 1 + s.n_named();
        for g in &arb.congruences {
            if rng.chance(1, 3) {
                c.add_local(); // unused, before the congruence's local
            }
            let expr = if rng.chance(1, 2) {
                -g.expr.clone()
            } else {
                g.expr.clone()
            };
            let r = g.rem + g.modulus * rng.range(-2, 2);
            if rng.chance(1, 2) {
                c.add_congruence(&expr, r, g.modulus); // local at -m
            } else {
                // expr - r + m·α = 0: the local at +m.
                let l = c.add_local();
                let mut row = Coeffs::zeros(c.ncols());
                row[..named].copy_from_slice(expr.raw_coeffs());
                row[0] -= r;
                row[c.local_col(l)] = g.modulus;
                c.push_row(Row::new(ConstraintKind::Eq, row));
            }
        }
        if rng.chance(1, 4) {
            c.add_local(); // unused, last
        }
        c
    }

    /// [`Conjunct::is_canonical`] by its definition.
    fn canonical(c: &Conjunct) -> bool {
        let mut k = c.clone();
        k.canonicalize();
        k == *c
    }

    /// Two sets drawn from one pool of conjuncts, so they often share
    /// conjuncts, and a conjunct outside the pool.
    fn sets(seed: u64) -> (Set, Set, Conjunct) {
        let mut rng = Rng::new(seed);
        let pool: Vec<Conjunct> = (0..3).map(|_| noncanonical(&mut rng)).collect();
        let draw = |rng: &mut Rng| {
            let mut s = Set::empty(&sp());
            for c in &pool {
                if rng.chance(2, 3) {
                    s.push_conjunct(c.clone());
                }
            }
            s
        };
        let a = draw(&mut rng);
        let b = draw(&mut rng);
        (a, b, noncanonical(&mut rng))
    }

    /// [`Set::union`] as it was before conjuncts were trusted canonical.
    fn union_canonicalizing(a: &Set, b: &Set) -> Set {
        let mut out = a.clone();
        for c in &b.conjuncts {
            out.push_conjunct(c.clone());
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn canonicalize_is_idempotent(seed in any::<u64>()) {
            let c = noncanonical(&mut Rng::new(seed));
            let mut once = c.clone();
            once.canonicalize();
            let mut twice = once.clone();
            twice.canonicalize();
            prop_assert_eq!(&twice, &once, "{}", c);
            prop_assert!(once.is_canonical(), "{}", once);
            // The allocation-free check agrees with its definition, also
            // once rows are sorted and locals compacted, where only the
            // congruence rows can still be off.
            let mut sorted = c.clone();
            sorted.compress_locals();
            sorted.rows_mut().sort_by(Row::canonical_cmp);
            sorted.rows_mut().dedup();
            for x in [&c, &sorted] {
                prop_assert_eq!(x.is_canonical(), canonical(x), "{}", x);
            }
        }

        #[test]
        fn every_conjunct_a_set_returns_is_canonical(seed in any::<u64>()) {
            let (a, b, c) = sets(seed);
            let mut grown = a.clone();
            grown.union_with(&a.intersect(&b));
            grown.union_with(&b);
            let results = [
                ("from_conjunct", Set::from_conjunct(c.clone())),
                ("union", a.union(&b)),
                ("union self", a.union(&a)),
                ("union_with", grown),
                ("intersect", a.intersect(&b)),
                ("intersect_conjunct", a.intersect_conjunct(&c)),
                ("subtract", a.try_subtract(&b).unwrap_or_else(|| a.clone())),
                ("project_out", a.project_out(1, 1)),
                ("approximate", a.approximate()),
                ("simplify", a.simplify()),
                ("gist", a.gist(&b)),
            ];
            for (op, s) in &results {
                for (k, x) in s.conjuncts.iter().enumerate() {
                    prop_assert!(canonical(x) && !x.is_known_false(), "{op}: {x}");
                    prop_assert!(!s.conjuncts[..k].contains(x), "{op}: {x} twice in {s}");
                }
            }
        }

        #[test]
        fn union_with_matches_canonicalizing_union(seed in any::<u64>()) {
            let (a, b, _) = sets(seed);
            let want = union_canonicalizing(&a, &b);
            prop_assert_eq!(&a.union(&b), &want);
            let mut got = a.clone();
            got.union_with(&b);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(&a.union(&a), &a);
        }

        #[test]
        fn intersect_conjunct_matches_intersect_with_its_set(seed in any::<u64>()) {
            let (a, b, c) = sets(seed);
            // Canonical operands (a conjunct of `b`) and non-canonical ones.
            let operands = b.conjuncts.iter().chain([&c]);
            let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
            for other in operands {
                let (want, want_trace) =
                    traced(|| a.intersect(&Set::from_conjunct(other.clone())));
                let (got, got_trace) = traced(|| a.intersect_conjunct(other));
                prop_assert_eq!(&got, &want, "{} and {}", a, other);
                prop_assert!(
                    got_trace == want_trace,
                    "{a} and {other}: questions differ\nborrowed:\n{got_trace}\nset:\n{want_trace}"
                );
            }
        }

        #[test]
        fn guard_atoms_not_in_matches_filtered_atoms(seed in any::<u64>()) {
            let mut rng = Rng::new(seed);
            let (p, q) = (noncanonical(&mut rng), noncanonical(&mut rng));
            let s = sp();
            // Knowns that share every row of `p`, some, or none.
            let both = q.intersect(&p);
            let doms = [p.clone(), p.intersect(&q), p.simplified(), Conjunct::empty(&s)];
            let knowns = [
                p.clone(),
                q.clone(),
                both.simplified(),
                both,
                Conjunct::universe(&s),
                Conjunct::empty(&s),
            ];
            for dom in &doms {
                for known in &knowns {
                    let mut want = dom.guard_atoms();
                    let known_atoms = known.guard_atoms();
                    want.retain(|a| !known_atoms.contains(a));
                    prop_assert_eq!(&dom.guard_atoms_not_in(known), &want, "{} not in {}", dom, known);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::num;

    fn sp() -> Space {
        Space::new(&["n"], &["i", "j"])
    }

    fn box_set(s: &Space, lo: i64, hi: i64) -> Set {
        Set::from_constraints(
            s,
            [
                (LinExpr::var(s, 0) - lo).geq0(),
                (LinExpr::constant(s, hi) - LinExpr::var(s, 0)).geq0(),
            ],
        )
    }

    #[test]
    fn union_intersect_contains() {
        let s = sp();
        let a = box_set(&s, 0, 5);
        let b = box_set(&s, 3, 9);
        let u = a.union(&b);
        let i = a.intersect(&b);
        assert!(u.contains(&[0], &[0, 0]));
        assert!(u.contains(&[0], &[9, 0]));
        assert!(!u.contains(&[0], &[10, 0]));
        assert!(i.contains(&[0], &[4, 0]));
        assert!(!i.contains(&[0], &[1, 0]));
    }

    #[test]
    fn subtract_basic() {
        let s = sp();
        let a = box_set(&s, 0, 9);
        let b = box_set(&s, 3, 5);
        let d = a.subtract(&b);
        for i in 0..=9 {
            assert_eq!(d.contains(&[0], &[i, 0]), !(3..=5).contains(&i), "i={i}");
        }
    }

    #[test]
    fn subtract_with_stride() {
        let s = sp();
        let a = box_set(&s, 0, 9);
        let evens = {
            let mut c = Conjunct::universe(&s);
            c.add_congruence(&LinExpr::var(&s, 0), 0, 2);
            Set::from_conjunct(c)
        };
        let odds_in_box = a.subtract(&evens);
        for i in 0..=9 {
            assert_eq!(odds_in_box.contains(&[0], &[i, 0]), i % 2 == 1, "i={i}");
        }
    }

    #[test]
    fn complement_of_congruence_round_trip() {
        let s = sp();
        let mut c = Conjunct::universe(&s);
        c.add_congruence(&LinExpr::var(&s, 0), 1, 4);
        let set = Set::from_conjunct(c);
        let comp = set.complement();
        for i in -10..=10 {
            assert_eq!(
                comp.contains(&[0], &[i, 0]),
                !set.contains(&[0], &[i, 0]),
                "i={i}"
            );
        }
        // Complement twice returns the same set of points.
        let comp2 = comp.complement();
        assert!(comp2.same_set(&set));
    }

    #[test]
    fn subset_and_equality() {
        let s = sp();
        let small = box_set(&s, 2, 4);
        let big = box_set(&s, 0, 9);
        assert!(small.is_subset(&big));
        assert!(!big.is_subset(&small));
        assert!(big.same_set(&big.clone()));
        // Union of two halves equals the whole.
        let lo = box_set(&s, 0, 4);
        let hi = box_set(&s, 5, 9);
        assert!(lo.union(&hi).same_set(&big));
    }

    #[test]
    fn make_disjoint_covers_and_is_disjoint() {
        let s = sp();
        let a = box_set(&s, 0, 6);
        let b = box_set(&s, 4, 9);
        let u = a.union(&b);
        let pieces = u.make_disjoint();
        assert!(pieces.len() >= 2);
        // Same coverage.
        let mut rebuilt = Set::empty(&s);
        for p in &pieces {
            rebuilt = rebuilt.union(&Set::from_conjunct(p.clone()));
        }
        assert!(rebuilt.same_set(&u));
        // Pairwise disjoint.
        for (x, p) in pieces.iter().enumerate() {
            for q in pieces.iter().skip(x + 1) {
                assert!(Set::from_conjunct(p.clone()).is_disjoint(&Set::from_conjunct(q.clone())));
            }
        }
    }

    #[test]
    fn empty_and_universe() {
        let s = sp();
        assert!(Set::empty(&s).is_empty());
        assert!(!Set::universe(&s).is_empty());
        assert!(Set::universe(&s).is_universe());
        let contradiction = Set::from_constraints(
            &s,
            [
                (LinExpr::var(&s, 0) - 5).geq0(),
                (LinExpr::constant(&s, 3) - LinExpr::var(&s, 0)).geq0(),
            ],
        );
        assert!(contradiction.is_empty());
    }

    #[test]
    fn enumerate_lexicographic() {
        let s = sp();
        // 0 <= i <= 2, 0 <= j <= 1, i <= j
        let set = Set::from_constraints(
            &s,
            [
                LinExpr::var(&s, 0).geq0(),
                (LinExpr::constant(&s, 2) - LinExpr::var(&s, 0)).geq0(),
                LinExpr::var(&s, 1).geq0(),
                (LinExpr::constant(&s, 1) - LinExpr::var(&s, 1)).geq0(),
                LinExpr::var(&s, 0).leq(LinExpr::var(&s, 1)),
            ],
        );
        let pts = set.enumerate(&[0], &[-1, -1], &[3, 3]);
        assert_eq!(pts, vec![vec![0, 0], vec![0, 1], vec![1, 1]]);
    }

    #[test]
    fn atoms_decomposition() {
        let s = sp();
        let mut c = Conjunct::universe(&s);
        c.add_constraint(&LinExpr::var(&s, 0).geq0());
        c.add_congruence(&LinExpr::var(&s, 1), 0, 3);
        let at = atoms(&c);
        assert_eq!(at.len(), 2);
        let with_local: Vec<_> = at.iter().filter(|a| a.n_locals() > 0).collect();
        assert_eq!(with_local.len(), 1);
        assert!(range_mod_pattern(with_local[0]).is_some());
    }

    #[test]
    fn range_mod_complement_is_exact() {
        let s = Space::new::<&str>(&[], &["i"]);
        let mut c = Conjunct::universe(&s);
        // ∃a: 0 <= i - 5a <= 2 (residues 0,1,2 mod 5)
        let l = { c.add_local() };
        let named = 1 + s.n_named();
        let mut lo = vec![0i64; named + 1];
        lo[1] = 1; // i
        lo[named + l] = -5;
        c.push_row(Row::new(ConstraintKind::Geq, lo));
        let mut hi = vec![2i64, -1, 0];
        hi[named + l] = 5;
        c.push_row(Row::new(ConstraintKind::Geq, hi));
        let set = Set::from_conjunct(c);
        for i in -12..=12 {
            let member = set.contains(&[], &[i]);
            assert_eq!(member, (0..=2).contains(&num::mod_floor(i, 5)), "i={i}");
        }
        let comp = set.complement();
        for i in -12..=12 {
            assert_eq!(comp.contains(&[], &[i]), !set.contains(&[], &[i]), "i={i}");
        }
    }
}
