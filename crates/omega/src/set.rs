//! Unions of [`Conjunct`]s — the `Set` type mirroring an Omega relation in
//! disjunctive normal form.

use crate::conjunct::{Conjunct, Row};
use crate::linexpr::{Constraint, ConstraintKind, LinExpr};
use crate::space::Space;
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
        assert_eq!(self.space, other.space, "space mismatch in union");
        let mut out = self.clone();
        for c in &other.conjuncts {
            out.push_conjunct(c.clone());
        }
        out
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

    /// Intersection with a single conjunct.
    pub fn intersect_conjunct(&self, other: &Conjunct) -> Set {
        self.intersect(&Set::from_conjunct(other.clone()))
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
    pub fn try_subtract(&self, other: &Set) -> Option<Set> {
        assert_eq!(self.space, other.space, "space mismatch in subtract");
        let mut out = self.clone();
        for b in &other.conjuncts {
            let neg = try_complement_conjunct(b)?;
            let mut next = Set::empty(&self.space);
            for piece in &neg.conjuncts {
                for a in &out.conjuncts {
                    let c = a.intersect(piece);
                    if c.is_sat() {
                        next.push_conjunct(c);
                    }
                }
            }
            out = next;
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
            let s = crate::gist::drop_self_redundant(&s);
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

/// Exact complement of a conjunct as a union of **pairwise-disjoint**
/// pieces (`¬(c₁∧c₂∧…) = ¬c₁ ∪ (c₁∧¬c₂) ∪ (c₁∧c₂∧¬c₃) ∪ …`), or `None`
/// when a group of rows sharing a local variable does not match a
/// congruence/range pattern. Disjointness matters: [`Set::make_disjoint`]
/// forwards these pieces directly, and a scanner executing overlapping
/// pieces would run statement instances twice.
///
/// Pieces are not sat-checked and may be empty: the one caller,
/// [`Set::try_subtract`], sat-checks every piece again after intersecting
/// it with the minuend, which drops the empty ones.
pub(crate) fn try_complement_conjunct(c: &Conjunct) -> Option<Set> {
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

/// Decomposes a conjunct into "atoms": maximal groups of rows connected by
/// shared local variables. Local-free rows are singleton atoms.
pub(crate) fn atoms(c: &Conjunct) -> Vec<Conjunct> {
    let named = 1 + c.space().n_named();
    let nl = c.n_locals();
    // Union-find over locals.
    let mut parent: Vec<usize> = (0..nl).collect();
    fn find(p: &mut Vec<usize>, i: usize) -> usize {
        if p[i] != i {
            let r = find(p, p[i]);
            p[i] = r;
            r
        } else {
            i
        }
    }
    for r in c.rows() {
        let ls: Vec<usize> = (0..nl).filter(|&l| r.c[named + l] != 0).collect();
        for w in ls.windows(2) {
            let (a, b) = (find(&mut parent, w[0]), find(&mut parent, w[1]));
            if a != b {
                parent[a] = b;
            }
        }
    }
    let mut groups: Vec<Vec<&Row>> = Vec::new();
    let mut group_of_root: std::collections::HashMap<usize, usize> = Default::default();
    let mut singletons: Vec<&Row> = Vec::new();
    for r in c.rows() {
        let ls: Vec<usize> = (0..nl).filter(|&l| r.c[named + l] != 0).collect();
        if ls.is_empty() {
            singletons.push(r);
        } else {
            let root = find(&mut parent, ls[0]);
            let gi = *group_of_root.entry(root).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[gi].push(r);
        }
    }
    let mut out = Vec::new();
    for r in singletons {
        let mut a = Conjunct::universe(c.space());
        a.push_row(Row::new(r.kind, r.c[..named].to_vec()));
        out.push(a);
    }
    for g in groups {
        // Collect the locals used by this group and compact them.
        let mut used: Vec<usize> = Vec::new();
        for r in &g {
            for l in 0..nl {
                if r.c[named + l] != 0 && !used.contains(&l) {
                    used.push(l);
                }
            }
        }
        used.sort_unstable();
        let mut a = Conjunct::universe(c.space());
        for _ in 0..used.len() {
            a.add_local();
        }
        for r in &g {
            let mut row = r.c[..named].to_vec();
            for &l in &used {
                row.push(r.c[named + l]);
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
