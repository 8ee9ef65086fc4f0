//! Lowering the optimized AST to the `polyir` output language (paper §3.3),
//! including the if-statement simplification of Figure 5 (`mergeIfInOrder`)
//! and the guard propagation through degenerate loops of Figure 6.

use crate::ast::{Node, Problem};
use crate::input::{CodeGenError, Statement};
use polyir::{Cond, CondAtom, Expr, Stmt};

use omega::{Conjunct, ConstraintKind, LinExpr};

pub(crate) struct LowerCtx<'a> {
    pub pb: &'a Problem,
    pub stmts: &'a [Statement],
    /// When false, skip Figure 5 if-merging: each item gets its own guard
    /// (ablation of the paper's second contribution).
    pub merge_ifs: bool,
    /// Reorder same-position statements to improve merging (the paper's
    /// out-of-order merge for leaf statements).
    pub reorder_leaves: bool,
}

/// Recursion backstop for the merge algorithm.
const MAX_MERGE_DEPTH: usize = 4_096;

impl LowerCtx<'_> {
    /// Lowers the whole AST under the initial known context.
    pub fn lower_root(&self, root: &Node, known: &Conjunct) -> Result<Stmt, CodeGenError> {
        let items = self.items_of(root);
        self.merge(items, None, known, 0)
    }

    /// Flattens a node into mergeable items: split children are inlined
    /// (Figure 6 allows merging across multiple split nodes) and leaves
    /// expand into per-statement items.
    fn items_of<'n>(&self, node: &'n Node) -> Vec<Item<'n>> {
        match node {
            Node::Split { parts, .. } => parts
                .iter()
                .flat_map(|(_, child)| self.items_of(child))
                .collect(),
            Node::Leaf { guards, .. } => {
                let mut items: Vec<Item<'n>> = guards
                    .iter()
                    .map(|(p, g)| Item {
                        guard: g.clone(),
                        payload: Payload::Piece(*p),
                    })
                    .collect();
                if self.reorder_leaves {
                    // Statements in one leaf share a lexicographic position
                    // (paper §3.1), so they may be reordered freely: group
                    // equal/structurally similar guards to maximize merging.
                    items.sort_by_key(|i| i.guard.to_string());
                }
                items
            }
            Node::Loop { .. } => vec![Item {
                guard: self.effective_guard(node),
                payload: Payload::Node(node),
            }],
        }
    }

    /// The guard to test before entering this node's code, including guards
    /// propagated up through degenerate loops (Figure 6, with variable
    /// substitution along the defining equalities).
    fn effective_guard(&self, node: &Node) -> Conjunct {
        match node {
            Node::Loop {
                guard,
                degenerate,
                bounds,
                level,
                body,
                ..
            } => {
                let mut g = guard.clone();
                if *degenerate {
                    if let Some((c, e)) = bounds.equality_on(level - 1) {
                        let inner = self.effective_guard(body);
                        if !inner.is_universe() && !inner.is_known_false() {
                            let sub = crate::lift::substitute_scaled(&inner, level - 1, c, &e);
                            g = g.intersect(&sub);
                        }
                    }
                }
                g
            }
            Node::Leaf { guards, .. } if guards.len() == 1 => guards[0].1.clone(),
            _ => Conjunct::universe(&self.pb.space),
        }
    }

    /// Figure 5: merges neighboring guard conditions into if-then-else
    /// trees, in lexicographic order.
    fn merge(
        &self,
        items: Vec<Item<'_>>,
        postponed: Option<Conjunct>,
        known: &Conjunct,
        depth: usize,
    ) -> Result<Stmt, CodeGenError> {
        if depth >= MAX_MERGE_DEPTH {
            return Err(CodeGenError::Internal {
                detail: "mergeIfInOrder failed to converge".into(),
            });
        }
        // One span per entry into the merge algorithm (depth 0 = one call
        // per loop body, i.e. per nesting level); the recursion itself is
        // not spanned to keep traces proportional to the AST, not to the
        // merge search.
        let _span = if depth == 0 {
            omega::span!(merge_ifs, items = items.len())
        } else {
            omega::trace::SpanGuard::inert()
        };
        if items.is_empty() {
            return Ok(Stmt::Nop);
        }
        if !self.merge_ifs {
            // Ablation mode: emit every guard separately.
            let mut out = Vec::new();
            for item in &items {
                let g = item.guard.gist(known);
                if g.is_known_false() {
                    continue;
                }
                let inner = self.lower_item(item, &known.intersect(&g))?;
                out.push(Stmt::guarded(self.cond_of(&g)?, inner));
            }
            return self.wrap(postponed, Stmt::seq(out));
        }
        let g0 = items[0].guard.gist(known);
        if g0.is_known_false() {
            // Dead item under this context.
            let rest: Vec<Item<'_>> = items.into_iter().skip(1).collect();
            return self.merge(rest, postponed, known, depth + 1);
        }
        if g0.is_universe() {
            // Leading run of guard-free items.
            let mut out = Vec::new();
            let mut rest = Vec::new();
            let mut bare = true;
            for item in items {
                if bare && item.guard.gist(known).is_universe() {
                    out.push(self.lower_item(&item, known)?);
                } else {
                    bare = false;
                    rest.push(item);
                }
            }
            out.push(self.merge(rest, None, known, depth + 1)?);
            return self.wrap(postponed, Stmt::seq(out));
        }
        // Select the atom of g0 maximizing the contiguous then/else region.
        let atoms = g0.guard_atoms();
        let mut best: Option<(Conjunct, Option<Conjunct>, usize, usize)> = None;
        for atom in &atoms {
            let comp = atom.complement_single();
            // The first item satisfies its own gist atom by construction;
            // the implication test may be undecidable for exotic
            // existential atoms, so do not rely on it for item 0.
            let mut len1 = 1;
            for item in items.iter().skip(1) {
                if self.implies(&item.guard, atom, known) {
                    len1 += 1;
                } else {
                    break;
                }
            }
            let mut len2 = 0;
            if let Some(c) = &comp {
                for item in items.iter().skip(len1) {
                    if self.implies(&item.guard, c, known) {
                        len2 += 1;
                    } else {
                        break;
                    }
                }
            }
            let score = len1 + len2;
            if best.as_ref().is_none_or(|b| score > b.2 + b.3) {
                best = Some((atom.clone(), comp, len1, len2));
            }
        }
        let Some((c, comp, len1, len2)) = best else {
            return Err(CodeGenError::Internal {
                detail: "non-universe gist produced no guard atoms".into(),
            });
        };
        debug_assert!(len1 >= 1, "first item must satisfy its own guard atom");
        let known_c = known.intersect(&c);
        let mut it = items.into_iter();
        let nodes1: Vec<Item<'_>> = it.by_ref().take(len1).collect();
        let nodes2: Vec<Item<'_>> = it.by_ref().take(len2).collect();
        let nodes3: Vec<Item<'_>> = it.collect();
        if nodes2.is_empty() && nodes3.is_empty() {
            // Postponing c only makes progress if gisting under the
            // enriched context discharges at least one atom. A starved
            // gist (degraded implication queries) can fail to, leaving
            // the merge state unchanged forever — emit the residual
            // guards directly instead: sound, just less merged.
            if nodes1[0].guard.gist(&known_c).guard_atoms().len() >= atoms.len() {
                let mut out = Vec::new();
                for item in &nodes1 {
                    let g = item.guard.gist(known);
                    if g.is_known_false() {
                        continue;
                    }
                    let inner = self.lower_item(item, &known.intersect(&g))?;
                    out.push(Stmt::guarded(self.cond_of(&g)?, inner));
                }
                return self.wrap(postponed, Stmt::seq(out));
            }
            // Postpone c: everything satisfies it; emit a single if later.
            let postponed = Some(match postponed {
                Some(p) => p.intersect(&c),
                None => c,
            });
            return self.merge(nodes1, postponed, &known_c, depth + 1);
        }
        if nodes2.is_empty() {
            // Both halves run before an error is reported; the second
            // half's error takes precedence.
            let s1 = self.merge(nodes1, Some(c), &known_c, depth + 1);
            let s2 = self.merge(nodes3, None, known, depth + 1)?;
            return self.wrap(postponed, Stmt::seq(vec![s1?, s2]));
        }
        let Some(comp) = comp else {
            return Err(CodeGenError::Internal {
                detail: "nodes2 non-empty requires a complement".into(),
            });
        };
        let known_nc = known.intersect(&comp);
        // The then/else regions are disjoint; as above, both are merged
        // before an error is reported.
        let s1 = self.merge(nodes1, None, &known_c, depth + 1);
        let s2 = self.merge(nodes2, None, &known_nc, depth + 1)?;
        let s1 = s1?;
        let s4 = Stmt::If {
            cond: self.cond_of(&c)?,
            then_: Box::new(s1),
            else_: match s2 {
                Stmt::Nop => None,
                other => Some(Box::new(other)),
            },
        };
        let s3 = self.merge(nodes3, None, known, depth + 1)?;
        self.wrap(postponed, Stmt::seq(vec![s4, s3]))
    }

    /// Does `guard` (under `known`) imply the atom `a`? Conservatively
    /// `false` when the subset test cannot be decided exactly.
    fn implies(&self, guard: &Conjunct, a: &Conjunct, known: &Conjunct) -> bool {
        known
            .intersect(guard)
            .to_set()
            .try_is_subset(&a.to_set())
            .unwrap_or(false)
    }

    /// Emits the postponed guard (already gisted at selection time) around
    /// the merged block.
    fn wrap(&self, postponed: Option<Conjunct>, body: Stmt) -> Result<Stmt, CodeGenError> {
        Ok(match postponed {
            None => body,
            Some(p) if p.is_universe() => body,
            Some(p) => Stmt::guarded(self.cond_of(&p)?, body),
        })
    }

    fn lower_item(&self, item: &Item<'_>, known: &Conjunct) -> Result<Stmt, CodeGenError> {
        // `known` already carries this item's emitted guard.
        match item.payload {
            Payload::Piece(p) => {
                let piece = &self.pb.pieces[p];
                let stmt = &self.stmts[piece.stmt];
                let args = stmt.args.iter().map(conv).collect();
                Ok(Stmt::Call {
                    stmt: piece.stmt,
                    args,
                })
            }
            Payload::Node(n) => self.lower_loop(n, known),
        }
    }

    /// Lowers a loop node (its guard has already been emitted by `merge`).
    fn lower_loop(&self, node: &Node, known: &Conjunct) -> Result<Stmt, CodeGenError> {
        let Node::Loop {
            level,
            bounds,
            guard,
            degenerate,
            body,
            active,
            restriction,
            ..
        } = node
        else {
            return Err(CodeGenError::Internal {
                detail: "lower_loop called on a non-loop node".into(),
            });
        };
        let v = level - 1;
        let known_in = known.intersect(guard).intersect(bounds);
        if *degenerate {
            let Some((c, e)) = bounds.equality_on(v) else {
                return Err(CodeGenError::Internal {
                    detail: "degenerate loop lacks a defining equality".into(),
                });
            };
            let value = conv(&e);
            let body_items = self.items_of(body);
            let inner = self.merge(body_items, None, &known_in, 0)?;
            if matches!(inner, Stmt::Nop) {
                return Ok(Stmt::Nop);
            }
            if c == 1 {
                return Ok(Stmt::Assign {
                    var: v,
                    value,
                    body: Box::new(inner),
                });
            }
            // c > 1: t = e / c, guarded by divisibility unless provable.
            let assign = Stmt::Assign {
                var: v,
                value: Expr::FloorDiv(Box::new(value.clone()), c),
                body: Box::new(inner),
            };
            if self.implies_congruence(known, &e, c) {
                return Ok(assign);
            }
            return Ok(Stmt::guarded(
                Cond::atom(CondAtom::ModZero(value, c)),
                assign,
            ));
        }
        let (lowers, uppers) = bounds.bounds_on(v);
        let lower_exprs: Vec<Expr> = lowers.iter().map(lower_bound_expr).collect();
        let upper_exprs: Vec<Expr> = uppers.iter().map(upper_bound_expr).collect();
        // Only when the hull gives no bound in a direction (it cannot bound
        // the union in a single conjunct, e.g. `i ≤ max(n-1, 8)`) is the
        // fallback computed: min/max over the per-piece bounds, as in Omega
        // code generation (Kelly et al.); residual guards re-establish
        // exactness inside the loop. The lower side is settled first, so
        // its `UnboundedLoop` wins before the upper fallback runs.
        let unbounded = || CodeGenError::UnboundedLoop { level: *level };
        let mut lower = if lower_exprs.is_empty() {
            let fallback = self.piece_bounds(active, restriction, *level, true);
            Expr::min_of(fallback.ok_or_else(unbounded)?)
        } else {
            Expr::max_of(lower_exprs)
        };
        let upper = if upper_exprs.is_empty() {
            let fallback = self.piece_bounds(active, restriction, *level, false);
            Expr::max_of(fallback.ok_or_else(unbounded)?)
        } else {
            Expr::min_of(upper_exprs)
        };
        let mut step = 1;
        if let Some((m, r)) = bounds.stride_on(v) {
            step = m;
            // Does the lower bound already satisfy the stride? (§3.3's two
            // Gist tests collapse to: context implies lb ≡ r mod m, testable
            // when there is a single unit-coefficient lower bound.) The
            // context must NOT contain the stride congruence itself — it is
            // only enforced by the aligned stepping this test justifies, so
            // including it is circular (with a pinned loop range it can
            // back-derive a congruence on outer variables that no emitted
            // code checks). Use known ∧ guard plus the inequality bounds on
            // `v` only; the latter are sound because any outer point with an
            // empty range runs zero iterations anyway.
            let mut ineq = Conjunct::universe(&self.pb.space);
            for b in &lowers {
                let e = LinExpr::var(&self.pb.space, v) * b.coeff - b.expr.clone();
                ineq.add_constraint(&e.geq0());
            }
            for b in &uppers {
                let e = b.expr.clone() - LinExpr::var(&self.pb.space, v) * b.coeff;
                ineq.add_constraint(&e.geq0());
            }
            let align_ctx = known.intersect(guard).intersect(&ineq);
            let aligned = lowers.len() == 1
                && lowers[0].coeff == 1
                && self.implies_congruence(&align_ctx, &(lowers[0].expr.clone() - r.clone()), m);
            if !aligned {
                // lb + ((r - lb) mod m), folded when the bound is constant.
                let delta = Expr::Mod(Box::new(Expr::sub(conv(&r), lower.clone())), m);
                lower = polyir::passes::fold_expr(&Expr::add(lower, delta));
            }
        }
        let body_items = self.items_of(body);
        let inner = self.merge(body_items, None, &known_in, 0)?;
        if matches!(inner, Stmt::Nop) {
            return Ok(Stmt::Nop);
        }
        Ok(Stmt::Loop {
            var: v,
            lower,
            upper,
            step,
            body: Box::new(inner),
        })
    }

    /// Per-piece loop bounds at `level`, for the min/max fallback: one
    /// expression per active piece (the max of its lower bounds when
    /// `lower`, the min of its upper bounds otherwise). `None` when some
    /// piece is itself unbounded.
    fn piece_bounds(
        &self,
        active: &[usize],
        restriction: &Conjunct,
        level: usize,
        lower: bool,
    ) -> Option<Vec<Expr>> {
        let v = level - 1;
        let mut out = Vec::new();
        for &p in active {
            let projected = self
                .pb
                .project_inner(p, level)
                .intersect_conjunct(restriction);
            for c in projected.conjuncts() {
                let c = c.simplified().without_redundant();
                if !c.is_sat() {
                    continue;
                }
                if let Some((coeff, e)) = c.equality_on(v) {
                    let expr = if coeff == 1 {
                        conv(&e)
                    } else if lower {
                        Expr::CeilDiv(Box::new(conv(&e)), coeff)
                    } else {
                        Expr::FloorDiv(Box::new(conv(&e)), coeff)
                    };
                    out.push(expr);
                    continue;
                }
                let (lo, hi) = c.bounds_on(v);
                let mut bounds = if lower { lo } else { hi };
                if bounds.is_empty() {
                    // The bound may exist only through a local (non-unit
                    // coefficients defeat exact elimination); the real
                    // shadow makes it explicit. Over-approximate, hence
                    // sound here — guards re-tighten inside the loop.
                    let (lo, hi) = c.real_shadow().bounds_on(v);
                    bounds = if lower { lo } else { hi };
                }
                if bounds.is_empty() {
                    return None;
                }
                let exprs: Vec<Expr> = bounds
                    .iter()
                    .map(|b| {
                        if lower {
                            lower_bound_expr(b)
                        } else {
                            upper_bound_expr(b)
                        }
                    })
                    .collect();
                out.push(if lower {
                    Expr::max_of(exprs)
                } else {
                    Expr::min_of(exprs)
                });
            }
        }
        if out.is_empty() {
            None
        } else {
            Some(out)
        }
    }

    /// Does `known` imply `e ≡ 0 (mod m)`?
    fn implies_congruence(&self, known: &Conjunct, e: &LinExpr, m: i64) -> bool {
        let mut cc = Conjunct::universe(&self.pb.space);
        cc.add_congruence(e, 0, m);
        let Some(comp) = cc.complement_single() else {
            return false;
        };
        !known.intersect(&comp).is_sat()
    }

    /// Converts a guard conjunct to a runtime condition.
    pub(crate) fn cond_of(&self, g: &Conjunct) -> Result<Cond, CodeGenError> {
        try_cond_of_conjunct(g)
    }
}

/// Converts a guard conjunct to a runtime [`Cond`] (shared by the baseline
/// generator): local-free constraints become comparisons, congruences
/// become `%` tests, and general single-existential groups lower to
/// floor/ceil bound comparisons.
///
/// # Panics
///
/// Panics on a guard with several coupled existential variables (cannot
/// arise from this crate's scanning pipeline). Use [`try_cond_of_conjunct`]
/// for a recoverable variant.
pub fn cond_of_conjunct(g: &Conjunct) -> Cond {
    match try_cond_of_conjunct(g) {
        Ok(c) => c,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible form of [`cond_of_conjunct`]: returns
/// [`CodeGenError::UnloweredGuard`] on a guard atom with several coupled
/// existential variables instead of panicking. This is the variant used by
/// [`crate::CodeGen::generate`], which must not panic on any input.
pub fn try_cond_of_conjunct(g: &Conjunct) -> Result<Cond, CodeGenError> {
    let mut atoms = Vec::new();
    for atom in g.guard_atoms() {
        lower_guard_atom(&atom, true, &mut atoms)?;
    }
    Ok(Cond::from_atoms(atoms))
}

/// Lowers one guard atom (a connected group of constraints sharing
/// existential variables) into runtime condition atoms. `renorm` allows one
/// re-normalization pass through the solver for a coupled multi-local atom
/// (a gist can leave behind a coupling that a fresh simplification
/// decouples); the recursive retry runs with `renorm = false` so the
/// fallback cannot loop.
fn lower_guard_atom(
    atom: &Conjunct,
    renorm: bool,
    out: &mut Vec<CondAtom>,
) -> Result<(), CodeGenError> {
    if atom.n_locals() == 0 {
        for k in atom.local_free_constraints() {
            let e = conv(k.expr());
            out.push(match k.kind() {
                ConstraintKind::Geq => CondAtom::GeqZero(e),
                ConstraintKind::Eq => CondAtom::EqZero(e),
            });
        }
        return Ok(());
    }
    if let Some((expr, m, lo, hi)) = atom.range_mod() {
        let shifted = conv(&(expr - lo));
        if lo == hi {
            out.push(CondAtom::ModZero(shifted, m));
        } else {
            out.push(CondAtom::ModLeq(shifted, m, hi - lo));
        }
        return Ok(());
    }
    if let Some(a) = exotic_single_local(atom) {
        out.push(a);
        return Ok(());
    }
    // An atom referencing no parameter or variable is a constant truth
    // value: a closed existential the gist that produced it failed to
    // discharge. Decide it here instead of rejecting the guard.
    let named = 1 + atom.space().n_named();
    if atom
        .rows_raw()
        .all(|(_, row)| row[1..named].iter().all(|&x| x == 0))
    {
        if !atom.is_sat() {
            out.push(CondAtom::GeqZero(Expr::Const(-1)));
        }
        return Ok(());
    }
    if let Some(mut lowered) = exotic_locals(atom) {
        out.append(&mut lowered);
        return Ok(());
    }
    if renorm {
        let fresh = atom.simplified();
        if fresh.to_string() != atom.to_string() {
            let mut tmp = Vec::new();
            if fresh
                .guard_atoms()
                .iter()
                .try_for_each(|a| lower_guard_atom(a, false, &mut tmp))
                .is_ok()
            {
                out.extend(tmp);
                return Ok(());
            }
        }
    }
    Err(CodeGenError::UnloweredGuard {
        atom: atom.to_string(),
    })
}

/// Lowers `∃α: rows(x, α)` with a single local to a runtime test: α is an
/// integer in `[max(ceils), min(floors)]`, so the guard is
/// `min(floors) - max(ceils) >= 0` (equalities contribute both sides, which
/// encodes their divisibility requirement for free).
fn exotic_single_local(atom: &Conjunct) -> Option<CondAtom> {
    if atom.n_locals() != 1 {
        return None;
    }
    let space = atom.space().clone();
    let named = 1 + space.n_named();
    let mut floors: Vec<Expr> = Vec::new(); // α <= floord(e, b)
    let mut ceils: Vec<Expr> = Vec::new(); // α >= ceild(e, a)
    for (kind, row) in atom.rows_raw() {
        let c = row[named];
        let e = omega::LinExpr::from_raw(&space, &row[..named]);
        let kinds: &[i64] = match kind {
            omega::ConstraintKind::Geq => &[1],
            omega::ConstraintKind::Eq => &[1, -1],
        };
        for &sgn in kinds {
            let (c, e) = (sgn * c, if sgn == 1 { e.clone() } else { -e.clone() });
            if c > 0 {
                // e + c·α >= 0  →  α >= ceild(-e, c)
                ceils.push(Expr::CeilDiv(Box::new(conv(&-e.clone())), c));
            } else if c < 0 {
                // e - |c|·α >= 0  →  α <= floord(e, |c|)
                floors.push(Expr::FloorDiv(Box::new(conv(&e)), -c));
            }
        }
    }
    if floors.is_empty() || ceils.is_empty() {
        return None; // unbounded α: simplification should have removed it
    }
    let hi = Expr::min_of(floors);
    let lo = Expr::max_of(ceils);
    Some(CondAtom::GeqZero(Expr::sub(hi, lo)))
}

/// Lowers `∃α, β, …: rows(x, α, β, …)` with several coupled locals, for
/// the shape exact projection leaves behind: at most one *primary* local α
/// carrying inequality bounds, every other local a single-use *witness*
/// whose equality row encodes `e·α + f ≡ 0 (mod |c|)`. The congruences are
/// modular-solved for α and CRT-merged; the final runtime test compares
/// the stride-aligned lower bound of α against its upper bound. Returns
/// `None` for shapes outside this fragment (several primary locals,
/// congruences whose compatibility needs a symbolic division, …).
fn exotic_locals(atom: &Conjunct) -> Option<Vec<CondAtom>> {
    let space = atom.space().clone();
    let named = 1 + space.n_named();
    let nl = atom.n_locals();
    if nl < 2 {
        return None;
    }
    let mut rows: Vec<(ConstraintKind, Vec<i64>)> =
        atom.rows_raw().map(|(k, row)| (k, row.to_vec())).collect();
    // A local used only in one inequality can always be chosen large (or
    // small) enough to satisfy it: drop such rows until none remain.
    loop {
        let uses = local_uses(&rows, named, nl);
        let Some(drop) = rows.iter().position(|(k, row)| {
            *k == ConstraintKind::Geq && (0..nl).any(|l| row[named + l] != 0 && uses[l] == 1)
        }) else {
            break;
        };
        rows.remove(drop);
    }
    let uses = local_uses(&rows, named, nl);
    let witness: Vec<bool> = (0..nl).map(|l| uses[l] == 1).collect();
    let primaries: Vec<usize> = (0..nl).filter(|&l| uses[l] > 1).collect();
    if primaries.len() > 1 {
        return None;
    }
    let alpha = primaries.first().copied();
    let mut atoms = Vec::new();
    let mut ceils: Vec<Expr> = Vec::new();
    let mut floors: Vec<Expr> = Vec::new();
    let mut congs: Vec<(Vec<i64>, i64)> = Vec::new(); // α ≡ residue (mod m)
    for (kind, row) in &rows {
        let wits: Vec<usize> = (0..nl)
            .filter(|&l| row[named + l] != 0 && witness[l])
            .collect();
        let e = alpha.map_or(0, |a| row[named + a]);
        let f = &row[..named];
        if wits.is_empty() {
            if e == 0 {
                // Row free of live locals: a plain constraint.
                let le = LinExpr::from_raw(&space, f);
                atoms.push(match kind {
                    ConstraintKind::Geq => CondAtom::GeqZero(conv(&le)),
                    ConstraintKind::Eq => CondAtom::EqZero(conv(&le)),
                });
                continue;
            }
            let kinds: &[i64] = match kind {
                ConstraintKind::Geq => &[1],
                ConstraintKind::Eq => &[1, -1],
            };
            for &sgn in kinds {
                let e = sgn * e;
                let fe: Vec<i64> = f.iter().map(|&x| sgn * x).collect();
                let le = LinExpr::from_raw(&space, &fe);
                if e > 0 {
                    // e·α + f >= 0  →  α >= ceild(-f, e)
                    ceils.push(Expr::CeilDiv(Box::new(conv(&-le.clone())), e));
                } else {
                    // α <= floord(f, |e|)
                    floors.push(Expr::FloorDiv(Box::new(conv(&le)), -e));
                }
            }
            continue;
        }
        // Witness row `e·α + f + Σ cᵢ·βᵢ = 0`: ∃β is solvable exactly when
        // e·α + f ≡ 0 (mod gcd |cᵢ|).
        if *kind != ConstraintKind::Eq {
            return None; // inequality witnesses were dropped above
        }
        if (0..nl).any(|l| row[named + l] != 0 && !witness[l] && alpha != Some(l)) {
            return None;
        }
        let mut m = 0i64;
        for &w in &wits {
            m = gcd_i64(m, row[named + w].abs());
        }
        if m <= 1 {
            continue; // always solvable
        }
        let (residue, modulus, side) = solve_congruence(e, f, m)?;
        if let Some((t, g)) = side {
            let le = LinExpr::from_raw(&space, &t);
            atoms.push(CondAtom::ModZero(conv(&le), g));
        }
        if modulus > 1 {
            congs.push((residue, modulus));
        }
    }
    // CRT-merge the congruences on α into a single `α ≡ r (mod m)`.
    let mut r = vec![0i64; named];
    let mut m = 1i64;
    for (r2, m2) in congs {
        let g = gcd_i64(m, m2);
        let diff: Vec<i64> = r2.iter().zip(&r).map(|(&a, &b)| a - b).collect();
        if diff.iter().any(|&x| x % g != 0) {
            return None; // compatibility needs a symbolic division
        }
        let u = mod_inverse((m / g).rem_euclid(m2 / g), m2 / g)?;
        let m_new = m / g * m2;
        for (ri, d) in r.iter_mut().zip(&diff) {
            *ri = (*ri + m * u * (d / g)).rem_euclid(m_new);
        }
        m = m_new;
    }
    if alpha.is_none() || m == 1 {
        if alpha.is_some() && !ceils.is_empty() && !floors.is_empty() {
            atoms.push(CondAtom::GeqZero(Expr::sub(
                Expr::min_of(floors),
                Expr::max_of(ceils),
            )));
        }
        return Some(atoms);
    }
    if ceils.is_empty() || floors.is_empty() {
        return Some(atoms); // a residue class is infinite: always non-empty
    }
    let lo = Expr::max_of(ceils);
    let hi = Expr::min_of(floors);
    let r_expr = conv(&LinExpr::from_raw(&space, &r));
    let aligned = Expr::add(lo.clone(), Expr::Mod(Box::new(Expr::sub(r_expr, lo)), m));
    atoms.push(CondAtom::GeqZero(Expr::sub(hi, aligned)));
    Some(atoms)
}

/// How many rows each local occurs in.
fn local_uses(rows: &[(ConstraintKind, Vec<i64>)], named: usize, nl: usize) -> Vec<usize> {
    let mut uses = vec![0usize; nl];
    for (_, row) in rows {
        for (l, u) in uses.iter_mut().enumerate() {
            if row[named + l] != 0 {
                *u += 1;
            }
        }
    }
    uses
}

/// Solves `e·α ≡ -f (mod m)` for α: returns `(residue, modulus, side)`
/// with the solution set `α ≡ residue (mod modulus)` and an optional
/// residual runtime test `side = (t, g)` meaning `t ≡ 0 (mod g)` that the
/// named variables must satisfy for any solution to exist. `None` when the
/// solution would need a symbolic division.
#[allow(clippy::type_complexity)]
fn solve_congruence(e: i64, f: &[i64], m: i64) -> Option<(Vec<i64>, i64, Option<(Vec<i64>, i64)>)> {
    if e.rem_euclid(m) == 0 {
        // No constraint on α; f ≡ 0 (mod m) is a test on the named part.
        return Some((vec![0; f.len()], 1, Some((f.to_vec(), m))));
    }
    let g = gcd_i64(e.abs(), m);
    if g > 1 {
        if f.iter().any(|&x| x % g != 0) {
            return None; // f ≡ 0 (mod g) would need a symbolic division
        }
        let fg: Vec<i64> = f.iter().map(|&x| x / g).collect();
        return solve_congruence(e / g, &fg, m / g);
    }
    let inv = mod_inverse(e.rem_euclid(m), m)?;
    // α ≡ -inv·f (mod m); reducing each coefficient mod m is sound since
    // it changes the residue by m·(integer).
    let residue: Vec<i64> = f.iter().map(|&x| (-inv * x).rem_euclid(m)).collect();
    Some((residue, m, None))
}

fn gcd_i64(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The inverse of `a` modulo `m` (`m > 0`), when `gcd(a, m) = 1`.
fn mod_inverse(a: i64, m: i64) -> Option<i64> {
    if m == 1 {
        return Some(0);
    }
    let (mut t, mut new_t) = (0i64, 1i64);
    let (mut r, mut new_r) = (m, a.rem_euclid(m));
    while new_r != 0 {
        let q = r / new_r;
        (t, new_t) = (new_t, t - q * new_t);
        (r, new_r) = (new_r, r - q * new_r);
    }
    if r != 1 {
        return None;
    }
    Some(t.rem_euclid(m))
}

struct Item<'n> {
    guard: Conjunct,
    payload: Payload<'n>,
}

enum Payload<'n> {
    Node(&'n Node),
    Piece(usize),
}

/// `coeff·v ≥ expr` as a runtime lower-bound expression for `v`.
fn lower_bound_expr(b: &omega::VarBound) -> Expr {
    if b.coeff == 1 {
        conv(&b.expr)
    } else {
        Expr::CeilDiv(Box::new(conv(&b.expr)), b.coeff)
    }
}

/// `coeff·v ≤ expr` as a runtime upper-bound expression for `v`.
fn upper_bound_expr(b: &omega::VarBound) -> Expr {
    if b.coeff == 1 {
        conv(&b.expr)
    } else {
        Expr::FloorDiv(Box::new(conv(&b.expr)), b.coeff)
    }
}

/// Converts an affine expression over the scanning space to a runtime
/// expression (parameters and loop-variable slots).
pub(crate) fn conv(e: &LinExpr) -> Expr {
    let space = e.space().clone();
    // Variables first, then parameters, constant last — matches the style
    // of generated C (`2*t1+n-3`).
    let mut acc = Expr::Const(0);
    for v in 0..space.n_vars() {
        let c = e.var_coeff(v);
        if c != 0 {
            acc = Expr::add(acc, Expr::mul(c, Expr::Var(v)));
        }
    }
    for p in 0..space.n_params() {
        let c = e.param_coeff(p);
        if c != 0 {
            acc = Expr::add(acc, Expr::mul(c, Expr::Param(p)));
        }
    }
    Expr::add(acc, Expr::Const(e.constant_term()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega::{Set, Space};

    #[test]
    fn conv_builds_readable_exprs() {
        let sp = Space::new(&["n"], &["i", "j"]);
        let e = LinExpr::var(&sp, 0) * 2 + LinExpr::param(&sp, 0) - 3;
        let x = conv(&e);
        let names = polyir::Names {
            params: vec!["n".into()],
            vars: vec!["i".into(), "j".into()],
            stmts: vec![],
        };
        assert_eq!(polyir::print::expr_to_string(&x, &names), "2*i+n-3");
    }

    #[test]
    fn cond_of_handles_strides() {
        let g = Set::parse("{ [i] : exists(a : i = 4a + 1) && i >= 3 }")
            .unwrap()
            .conjuncts()[0]
            .clone();
        let pb = crate::ast::Problem::new(g.space().clone(), Vec::new(), 1);
        let ctx = LowerCtx {
            pb: &pb,
            stmts: &[],
            merge_ifs: true,
            reorder_leaves: false,
        };
        let cond = ctx.cond_of(&g).unwrap();
        assert_eq!(cond.atoms().len(), 2);
        let names = polyir::Names {
            params: vec![],
            vars: vec!["i".into()],
            stmts: vec![],
        };
        let txt = polyir::print::cond_to_string(&cond, &names);
        assert!(txt.contains("%4 == 0"), "{txt}");
        assert!(txt.contains("i >= 3") || txt.contains("i-3 >= 0"), "{txt}");
    }
}
