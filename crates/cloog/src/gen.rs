//! Recursive code generation over separated regions, with CLooG-style
//! code compaction and syntactic (non-Gist) guard residuals.

use crate::separate::{separate, sort_regions, Region};
use crate::Options;
use codegenplus::{conv, lower_bound_expr, upper_bound_expr, CodeGenError, Statement};
use omega::{Conjunct, LinExpr, Set, Space};
use polyir::{Cond, CondAtom, Expr, Stmt};

pub(crate) struct Gen<'a> {
    pub space: Space,
    pub stmts: &'a [Statement],
    /// Disjoint pieces: (statement index, conjunct domain).
    pub pieces: Vec<(usize, Conjunct)>,
    pub options: Options,
}

impl Gen<'_> {
    pub fn run(&self, known: &Conjunct) -> Result<Stmt, CodeGenError> {
        let all: Vec<usize> = (0..self.pieces.len()).collect();
        self.gen_level(&all, 1, known)
    }

    fn max_level(&self) -> usize {
        self.space.n_vars()
    }

    fn project_inner(&self, piece: usize, level: usize) -> Set {
        let dom = self.pieces[piece].1.to_set();
        if level >= self.max_level() {
            dom
        } else {
            dom.project_out(level, self.max_level() - level)
        }
    }

    fn gen_level(
        &self,
        active: &[usize],
        level: usize,
        context: &Conjunct,
    ) -> Result<Stmt, CodeGenError> {
        if level > self.max_level() {
            return Ok(self.emit_statements(active, context));
        }
        let v = level - 1;
        // Projections, approximated (strides handled via hulls below).
        let projections: Vec<(usize, Set)> = active
            .iter()
            .map(|&p| {
                (
                    p,
                    self.project_inner(p, level)
                        .intersect_conjunct(context)
                        .approximate(),
                )
            })
            .collect();
        let stop = self.options.stop_level.map(|s| level >= s).unwrap_or(false);
        let mut regions = if stop {
            // -f/-l style: no separation below this level; one region with
            // everything (guards materialize inside the loop instead).
            let mut union = Set::empty(&self.space);
            for (_, p) in &projections {
                union = union.union(p);
            }
            let mut out = Vec::new();
            for c in union.make_disjoint() {
                let c = c.simplified();
                if c.is_sat() {
                    out.push(Region {
                        domain: c,
                        active: active.to_vec(),
                    });
                }
            }
            out
        } else {
            separate(&projections, &self.space)
        };
        sort_regions(&mut regions, v);
        let mut parts: Vec<(Region, Stmt)> = Vec::new();
        for region in regions {
            let code = self.gen_region(&region, level, context)?;
            if !matches!(code, Stmt::Nop) {
                parts.push((region, code));
            }
        }
        if self.options.compact {
            parts = self.compact(parts, v);
        }
        Ok(Stmt::seq(parts.into_iter().map(|(_, s)| s).collect()))
    }

    fn gen_region(
        &self,
        region: &Region,
        level: usize,
        context: &Conjunct,
    ) -> Result<Stmt, CodeGenError> {
        let v = level - 1;
        // Exact per-piece projections within the region give the stride.
        let mut exact = Set::empty(&self.space);
        for &p in &region.active {
            exact = exact.union(
                &self
                    .project_inner(p, level)
                    .intersect_conjunct(context)
                    .intersect_conjunct(&region.domain),
            );
        }
        if exact.is_empty() {
            return Ok(Stmt::Nop);
        }
        let hull = exact.hull();
        // Degenerate level?
        if let Some((c, e)) = hull.equality_on(v) {
            let value = conv(&e);
            let mut ctx2 = context.intersect(&region.domain);
            let eq = (LinExpr::var(&self.space, v) * c - e.clone()).eq0();
            ctx2.add_constraint(&eq);
            let body = self.gen_level(&region.active, level + 1, &ctx2)?;
            if matches!(body, Stmt::Nop) {
                return Ok(Stmt::Nop);
            }
            let mut enforced = Conjunct::universe(&self.space);
            enforced.add_constraint(&(LinExpr::var(&self.space, v) * c - e.clone()).eq0());
            let (outer, inner) = self.residual_guards(&region.domain, context, &enforced, v);
            let assign = Stmt::Assign {
                var: v,
                value: if c == 1 {
                    value.clone()
                } else {
                    Expr::FloorDiv(Box::new(value.clone()), c)
                },
                body: Box::new(Stmt::guarded(inner, body)),
            };
            // CLooG always guards non-unit divisions.
            let guarded = if c == 1 {
                assign
            } else {
                Stmt::guarded(Cond::atom(CondAtom::ModZero(value, c)), assign)
            };
            return Ok(Stmt::guarded(outer, guarded));
        }
        let (mut lowers, mut uppers) = hull.bounds_on(v);
        if lowers.is_empty() || uppers.is_empty() {
            // The hull may bound `v` only through an existential the
            // integer-exact eliminator could not remove (non-unit
            // coefficients on the local). The real shadow makes such bounds
            // explicit; it over-approximates, which is sound for loop
            // bounds because the residual guards re-test the domain.
            let widened = hull.real_shadow();
            let (wl, wu) = widened.bounds_on(v);
            if lowers.is_empty() {
                lowers = wl;
            }
            if uppers.is_empty() {
                uppers = wu;
            }
        }
        if lowers.is_empty() || uppers.is_empty() {
            return Err(CodeGenError::UnboundedLoop { level });
        }
        let mut lower = Expr::max_of(lowers.iter().map(lower_bound_expr).collect());
        let upper = Expr::min_of(uppers.iter().map(upper_bound_expr).collect());
        let mut step = 1;
        let mut bounds_rows = Conjunct::universe(&self.space);
        for b in &lowers {
            bounds_rows
                .add_constraint(&(LinExpr::var(&self.space, v) * b.coeff - b.expr.clone()).geq0());
        }
        for b in &uppers {
            bounds_rows
                .add_constraint(&(b.expr.clone() - LinExpr::var(&self.space, v) * b.coeff).geq0());
        }
        if let Some((m, r)) = hull.stride_on(v) {
            if r.is_constant() {
                // Strided loop with a constant residue; CLooG emits an
                // aligned constant lower bound when it can fold it.
                step = m;
                lower = align_lower(&lower, m, r.constant_term());
                bounds_rows.add_congruence(&(LinExpr::var(&self.space, v) - r), 0, m);
            }
            // Non-constant residues stay as modulo guards in the body —
            // the redundant inner-loop checks of paper Figure 8(b).
        }
        let ctx2 = context.intersect(&region.domain).intersect(&bounds_rows);
        let body = self.gen_level(&region.active, level + 1, &ctx2)?;
        if matches!(body, Stmt::Nop) {
            return Ok(Stmt::Nop);
        }
        // Region constraints not enforced by the loop bounds become guards;
        // the residual is *syntactic* — CLooG does not gist against the
        // accumulated context, so redundant conditions like `if (n >= 1)`
        // survive. Residuals referencing the loop variable are tested
        // inside the loop (the paper's inner-loop overhead).
        let (outer, inner) = self.residual_guards(&region.domain, context, &bounds_rows, v);
        let looped = Stmt::Loop {
            var: v,
            lower,
            upper,
            step,
            body: Box::new(Stmt::guarded(inner, body)),
        };
        Ok(Stmt::guarded(outer, looped))
    }

    fn emit_statements(&self, active: &[usize], context: &Conjunct) -> Stmt {
        let mut out = Vec::new();
        let mut active: Vec<usize> = active.to_vec();
        active.sort_by_key(|&p| (self.pieces[p].0, p));
        for p in active {
            let (stmt_idx, domain) = &self.pieces[p];
            // Exactness check: drop pieces empty under the context.
            if !domain.intersect(context).is_sat() {
                continue;
            }
            let (outer, inner) = self.residual_guards(
                domain,
                context,
                &Conjunct::universe(&self.space),
                usize::MAX,
            );
            let guard = outer.and(inner);
            let stmt = &self.stmts[*stmt_idx];
            let call = Stmt::Call {
                stmt: *stmt_idx,
                args: stmt.args.iter().map(conv).collect(),
            };
            out.push(Stmt::guarded(guard, call));
        }
        Stmt::seq(out)
    }

    /// Constraints of `domain` that are not *syntactically* present in
    /// `context ∪ enforced` (after canonicalization), split into the part
    /// testable before entering the loop (`outer`, free of `v`) and the
    /// part that must be tested inside it (`inner`, referencing `v`). The
    /// residual is syntactic, not semantic — the source of the redundant
    /// guards the paper measures against CLooG.
    fn residual_guards(
        &self,
        domain: &Conjunct,
        context: &Conjunct,
        enforced: &Conjunct,
        v: usize,
    ) -> (Cond, Cond) {
        let dom = domain.simplified();
        // CLooG computes each region's description minimally, so atoms the
        // *current loop* enforces are dropped semantically; but it does not
        // reason about the enclosing context, so cross-level redundancy is
        // only removed when syntactically identical (the paper's critique).
        let known = context.intersect(enforced).simplified();
        let known_atoms = known.guard_atoms();
        let mut outer = Vec::new();
        let mut inner = Vec::new();
        for atom in dom.guard_atoms() {
            if known_atoms.contains(&atom) {
                continue;
            }
            let enforced_implies = atom
                .complement_single()
                .map(|comp| !enforced.intersect(&comp).is_sat())
                .unwrap_or(false);
            if enforced_implies {
                continue;
            }
            if v != usize::MAX && atom.uses_var(v) {
                push_atom_cond(&atom, &mut inner);
            } else {
                push_atom_cond(&atom, &mut outer);
            }
        }
        (Cond::from_atoms(outer), Cond::from_atoms(inner))
    }

    /// Compaction: merges adjacent fragments whose generated code is
    /// structurally identical and whose union is exactly its hull.
    fn compact(&self, parts: Vec<(Region, Stmt)>, v: usize) -> Vec<(Region, Stmt)> {
        let mut out: Vec<(Region, Stmt)> = Vec::new();
        for (region, code) in parts {
            if let Some((prev_region, prev_code)) = out.last() {
                if bodies_mergeable(prev_code, &code) {
                    let union = prev_region.domain.to_set().union(&region.domain.to_set());
                    let hull = union.hull();
                    if hull.to_set().is_subset(&union) {
                        if let Some(merged_code) = remerge_loop(prev_code, &code, &hull, v) {
                            // Sound merge: one loop over the hull.
                            let (pr, _) = out.pop().unwrap();
                            let merged_region = Region {
                                domain: hull,
                                active: {
                                    let mut a = pr.active.clone();
                                    for x in &region.active {
                                        if !a.contains(x) {
                                            a.push(*x);
                                        }
                                    }
                                    a
                                },
                            };
                            out.push((merged_region, merged_code));
                            continue;
                        }
                    }
                }
            }
            out.push((region, code));
        }
        out
    }
}

/// Two fragments are mergeable when both are plain loops with the same
/// variable, step and body.
fn bodies_mergeable(a: &Stmt, b: &Stmt) -> bool {
    match (a, b) {
        (
            Stmt::Loop {
                var: va,
                step: sa,
                body: ba,
                ..
            },
            Stmt::Loop {
                var: vb,
                step: sb,
                body: bb,
                ..
            },
        ) => va == vb && sa == sb && ba == bb,
        _ => false,
    }
}

/// Builds the merged loop over the union hull. For strided loops the
/// hull's lower bound must be re-aligned to the residue class — a raw
/// hull bound may start off-stride (e.g. `for (t1=8; ...; t1+=2)` over an
/// odd-only domain). When the hull does not expose a matching constant
/// residue to align against, the merge is refused (`None`) and the
/// fragments stay separate, which is always sound.
fn remerge_loop(a: &Stmt, _b: &Stmt, hull: &Conjunct, v: usize) -> Option<Stmt> {
    let Stmt::Loop {
        var, step, body, ..
    } = a
    else {
        unreachable!()
    };
    let (lowers, uppers) = hull.bounds_on(v);
    if lowers.is_empty() || uppers.is_empty() {
        // Union hull bounds `v` only through a local; refuse the merge
        // rather than widening (the separate fragments are always sound).
        return None;
    }
    let mut lower = Expr::max_of(lowers.iter().map(lower_bound_expr).collect());
    let upper = Expr::min_of(uppers.iter().map(upper_bound_expr).collect());
    if *step > 1 {
        match hull.stride_on(v) {
            Some((m, r)) if m == *step && r.is_constant() => {
                lower = align_lower(&lower, m, r.constant_term());
            }
            _ => return None,
        }
    }
    Some(Stmt::Loop {
        var: *var,
        lower,
        upper,
        step: *step,
        body: body.clone(),
    })
}

/// First value `>= lower` congruent to `r0` modulo `m`.
fn align_lower(lower: &Expr, m: i64, r0: i64) -> Expr {
    match lower {
        Expr::Const(c) => Expr::Const(c + (r0 - c).rem_euclid(m)),
        other => Expr::add(
            other.clone(),
            Expr::Mod(Box::new(Expr::sub(Expr::Const(r0), other.clone())), m),
        ),
    }
}

fn push_atom_cond(atom: &Conjunct, atoms: &mut Vec<CondAtom>) {
    // Shared lowering with the CodeGen+ crate (the comparison is about the
    // scanning algorithms, not condition rendering).
    for a in codegenplus::cond_of_conjunct(atom).atoms() {
        atoms.push(a.clone());
    }
}
