//! The scanning AST of Figure 1 (split / loop / leaf nodes) and the node
//! property computation of Figure 3.

use omega::{Conjunct, LinExpr, Set, Space};

/// A disjoint piece of one statement's iteration space. Pieces are the unit
/// of scanning; several pieces may map back to the same input statement.
#[derive(Clone, Debug)]
pub(crate) struct Piece {
    /// Index of the originating statement.
    pub stmt: usize,
    /// The piece's iteration space (a single conjunct by construction).
    pub domain: Conjunct,
}

/// Shared problem context for AST construction.
#[derive(Clone, Debug)]
pub(crate) struct Problem {
    pub space: Space,
    pub pieces: Vec<Piece>,
    /// Number of scanned dimensions (`max_level`).
    pub max_level: usize,
    /// `projections[p][l-1] = Project(IS_p, l_{l+1} … l_max)` for
    /// `l ∈ 1..=max_level`, computed on first use: every recompute pass
    /// re-reads the same projections, but some (piece, level) pairs are
    /// never requested, so eager computation would waste the saving.
    projections: Vec<Vec<std::cell::OnceCell<Set>>>,
}

impl Problem {
    pub fn new(space: Space, pieces: Vec<Piece>, max_level: usize) -> Problem {
        let projections = pieces
            .iter()
            .map(|_| {
                (0..max_level.max(1))
                    .map(|_| std::cell::OnceCell::new())
                    .collect()
            })
            .collect();
        Problem {
            space,
            pieces,
            max_level,
            projections,
        }
    }

    pub fn piece_domain(&self, p: usize) -> &Conjunct {
        &self.pieces[p].domain
    }

    /// `Project(IS_p, l_{level+1} … l_max)`: the piece's domain with all
    /// dimensions deeper than `level` (1-based) projected away. Cached; a
    /// projection is a pure function of the piece, so concurrent
    /// initialization is deterministic.
    pub fn project_inner(&self, p: usize, level: usize) -> &Set {
        let idx = level.clamp(1, self.projections[p].len()) - 1;
        self.projections[p][idx].get_or_init(|| {
            let dom = self.piece_domain(p).to_set();
            if level >= self.max_level {
                dom
            } else {
                dom.project_out(level, self.max_level - level)
            }
        })
    }
}

/// AST node (paper Figure 1).
#[derive(Clone, Debug)]
pub(crate) enum Node {
    /// Separates disjoint iteration spaces at a level; generates no code.
    Split {
        active: Vec<usize>,
        /// `(restriction, subtree)` pairs in lexicographic order.
        parts: Vec<(Conjunct, Node)>,
    },
    /// One loop level.
    Loop {
        active: Vec<usize>,
        /// 1-based loop level; the scanned variable has index `level - 1`.
        level: usize,
        known: Conjunct,
        restriction: Conjunct,
        /// Conditions enforced by the loop structure itself (bounds, one
        /// stride). For a degenerate loop this is the defining equality.
        bounds: Conjunct,
        /// Extra conditions enforced by an if-statement *outside* the loop;
        /// never references the loop variable.
        guard: Conjunct,
        /// True when the level is a single point (assignment, not a loop).
        degenerate: bool,
        body: Box<Node>,
    },
    /// Statements at the innermost position.
    Leaf {
        active: Vec<usize>,
        known: Conjunct,
        restriction: Conjunct,
        /// Per-piece residual guards (`guards[s]` of the paper).
        guards: Vec<(usize, Conjunct)>,
    },
}

impl Node {
    pub fn active(&self) -> &[usize] {
        match self {
            Node::Split { active, .. } | Node::Leaf { active, .. } => active,
            Node::Loop { active, .. } => active,
        }
    }

    /// Loop nesting depth (paper §3.2.2): leaves are 0; non-degenerate
    /// loops add 1; split and degenerate-loop nodes pass the maximum
    /// through.
    pub fn nesting_depth(&self) -> usize {
        match self {
            Node::Leaf { .. } => 0,
            Node::Split { parts, .. } => parts
                .iter()
                .map(|(_, n)| n.nesting_depth())
                .max()
                .unwrap_or(0),
            Node::Loop {
                degenerate, body, ..
            } => body.nesting_depth() + usize::from(!*degenerate),
        }
    }

    /// Recomputes all derived node properties (paper Figure 3) under new
    /// `known` / `restriction` contexts; returns `None` when the node
    /// becomes empty.
    pub fn recompute(
        self,
        pb: &Problem,
        parent_active: &[usize],
        known: &Conjunct,
        restriction: &Conjunct,
    ) -> Option<Node> {
        match self {
            Node::Split { active, parts } => {
                let active: Vec<usize> = active
                    .into_iter()
                    .filter(|p| parent_active.contains(p))
                    .collect();
                let new_parts: Vec<(Conjunct, Node)> = parts
                    .into_iter()
                    .filter_map(|(r, child)| {
                        let child_restriction = restriction.intersect(&r);
                        child
                            .recompute(pb, &active, known, &child_restriction)
                            .map(|c| (r, c))
                    })
                    .collect();
                if new_parts.is_empty() {
                    return None;
                }
                if new_parts.len() == 1 {
                    // A split with one surviving child is transparent (the
                    // child was recomputed under the combined restriction).
                    return Some(new_parts.into_iter().next().unwrap().1);
                }
                let active = union_active(&new_parts);
                Some(Node::Split {
                    active,
                    parts: new_parts,
                })
            }
            Node::Loop {
                active,
                level,
                body,
                ..
            } => {
                let v = level - 1;
                let mut live: Vec<usize> = Vec::new();
                let mut projected = Set::empty(&pb.space);
                let cands: Vec<usize> = active
                    .iter()
                    .copied()
                    .filter(|p| parent_active.contains(p))
                    .collect();
                // Restrict every piece's projection first, then fold the
                // union in input order.
                let restricted: Vec<(usize, Set)> = cands
                    .into_iter()
                    .map(|p| {
                        (
                            p,
                            pb.project_inner(p, level).intersect_conjunct(restriction),
                        )
                    })
                    .collect();
                for (p, rs) in restricted {
                    if rs.is_empty() {
                        continue;
                    }
                    live.push(p);
                    projected.union_with(&rs);
                }
                if live.is_empty() {
                    return None;
                }
                let hull = projected.hull();
                let (bounds, guard, degenerate) = split_hull(&hull, v, known);
                let body_known = known.intersect(&bounds).intersect(&guard);
                let body_restriction = restriction.intersect(&bounds).intersect(&guard);
                let body = (*body).recompute(pb, &live, &body_known, &body_restriction)?;
                Some(Node::Loop {
                    active: live,
                    level,
                    known: known.clone(),
                    restriction: restriction.clone(),
                    bounds,
                    guard,
                    degenerate,
                    body: Box::new(body),
                })
            }
            Node::Leaf { active, .. } => {
                let mut live = Vec::new();
                let mut guards = Vec::new();
                for p in active.iter().filter(|p| parent_active.contains(p)) {
                    let g = pb.piece_domain(*p).intersect(restriction).gist(known);
                    if g.is_known_false() {
                        continue;
                    }
                    live.push(*p);
                    guards.push((*p, g));
                }
                if live.is_empty() {
                    return None;
                }
                Some(Node::Leaf {
                    active: live,
                    known: known.clone(),
                    restriction: restriction.clone(),
                    guards,
                })
            }
        }
    }
}

fn union_active(parts: &[(Conjunct, Node)]) -> Vec<usize> {
    let mut out: Vec<usize> = Vec::new();
    for (_, n) in parts {
        for p in n.active() {
            if !out.contains(p) {
                out.push(*p);
            }
        }
    }
    out.sort_unstable();
    out
}

/// Partitions a hull into loop-enforceable `bounds` and residual `guard`
/// for variable `v` (0-based). Implements the loop-node branch of Figure 3:
/// a degenerate level keeps only its defining equality and postpones
/// everything else; otherwise bounds take the inequality bounds plus one
/// unit-coefficient stride, and the guard is
/// `Gist(Project(hull, v), known ∧ bounds)`.
pub(crate) fn split_hull(
    hull: &Conjunct,
    v: usize,
    known: &Conjunct,
) -> (Conjunct, Conjunct, bool) {
    let space = hull.space().clone();
    if let Some((c, e)) = hull.equality_on(v) {
        // Degenerate loop: bounds = the equality; guard postponed (TRUE).
        let mut bounds = Conjunct::universe(&space);
        let expr = LinExpr::var(&space, v) * c - e;
        bounds.add_constraint(&expr.eq0());
        return (bounds, Conjunct::universe(&space), true);
    }
    let mut bounds = Conjunct::universe(&space);
    let (lowers, uppers) = hull.bounds_on(v);
    for b in &lowers {
        let expr = LinExpr::var(&space, v) * b.coeff - b.expr.clone();
        bounds.add_constraint(&expr.geq0());
    }
    for b in &uppers {
        let expr = b.expr.clone() - LinExpr::var(&space, v) * b.coeff;
        bounds.add_constraint(&expr.geq0());
    }
    if let Some((m, r)) = hull.stride_on(v) {
        let expr = LinExpr::var(&space, v) - r;
        bounds.add_congruence(&expr, 0, m);
    }
    let ctx = known.intersect(&bounds);
    let guard = hull.to_set().project_out(v, 1);
    let guard = match guard.as_single_conjunct() {
        Some(c) => c.gist(&ctx),
        None => guard.hull().gist(&ctx),
    };
    let guard = if guard.is_known_false() {
        // known ∧ hull is empty above this level; keep a canonical FALSE so
        // recompute of the body prunes everything.
        Conjunct::empty(&space)
    } else {
        lowerable_part(guard)
    };
    (bounds, guard, false)
}

/// Over-approximates a guard to its runtime-expressible part: atoms the
/// condition language cannot test (coupled existentials that exact
/// projection leaves behind, e.g. a parametric two-variable emptiness
/// check) are dropped. Sound because a level guard only skips
/// provably-empty subtrees — without the atom the inner loops run and
/// their own bounds and leaf guards exclude every point, so the cost is
/// empty iterations, never wrong execution. Dropping at the source also
/// keeps every downstream gist context conservative: nothing is ever
/// discharged against a condition that is not actually checked at runtime.
fn lowerable_part(guard: Conjunct) -> Conjunct {
    if crate::lower::try_cond_of_conjunct(&guard).is_ok() {
        return guard;
    }
    let mut out = Conjunct::universe(guard.space());
    for atom in guard.guard_atoms() {
        if crate::lower::try_cond_of_conjunct(&atom).is_ok() {
            out = out.intersect(&atom);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem(domains: &[&str]) -> Problem {
        let sets: Vec<Set> = domains.iter().map(|d| Set::parse(d).unwrap()).collect();
        let space = sets[0].space().clone();
        let pieces = sets
            .iter()
            .enumerate()
            .map(|(i, s)| Piece {
                stmt: i,
                domain: s.conjuncts()[0].clone(),
            })
            .collect();
        let max_level = space.n_vars();
        Problem::new(space, pieces, max_level)
    }

    #[test]
    fn project_inner_drops_inner_dims() {
        let pb = problem(&["[n] -> { [i,j] : 0 <= i < n && 0 <= j < i }"]);
        let p = pb.project_inner(0, 1);
        // i must still admit some j: i >= 1.
        assert!(p.contains(&[10], &[1, -99]));
        assert!(!p.contains(&[10], &[0, 0]));
        // level = max keeps everything.
        let p2 = pb.project_inner(0, 2);
        assert!(p2.contains(&[10], &[5, 3]));
        assert!(!p2.contains(&[10], &[5, 5]));
    }

    #[test]
    fn split_hull_simple_bounds() {
        let pb = problem(&["[n] -> { [i,j] : 1 <= i <= 100 && n >= 2 }"]);
        let hull = pb.piece_domain(0).clone();
        let known = Conjunct::universe(&pb.space);
        let (bounds, guard, degenerate) = split_hull(&hull, 0, &known);
        assert!(!degenerate);
        // Bounds contain exactly the i-range.
        assert!(bounds.uses_var(0));
        let (lo, hi) = bounds.bounds_on(0);
        assert_eq!(lo.len(), 1);
        assert_eq!(hi.len(), 1);
        // Guard captures n >= 2 (not expressible via loop i).
        assert!(!guard.is_universe());
        assert!(!guard.uses_var(0));
        assert!(guard.contains(&[2], &[999, 0]));
        assert!(!guard.contains(&[1], &[999, 0]));
    }

    #[test]
    fn split_hull_degenerate() {
        let pb = problem(&["[n] -> { [i,j] : i = n && n >= 2 }"]);
        let hull = pb.piece_domain(0).clone();
        let known = Conjunct::universe(&pb.space);
        let (bounds, guard, degenerate) = split_hull(&hull, 0, &known);
        assert!(degenerate);
        assert!(guard.is_universe(), "degenerate guard is postponed");
        assert!(bounds.equality_on(0).is_some());
    }

    #[test]
    fn split_hull_with_stride() {
        let pb = problem(&["{ [i,j] : 1 <= i <= 100 && exists(a : i = 4a + 1) }"]);
        let hull = pb.piece_domain(0).clone();
        let known = Conjunct::universe(&pb.space);
        let (bounds, guard, degenerate) = split_hull(&hull, 0, &known);
        assert!(!degenerate);
        let (m, r) = bounds.stride_on(0).expect("stride enters bounds");
        assert_eq!(m, 4);
        assert_eq!(r.to_string(), "1");
        assert!(guard.is_universe(), "nothing left for the guard: {guard}");
    }

    #[test]
    fn guard_not_duplicating_known() {
        let pb = problem(&["[n] -> { [i,j] : 1 <= i <= 100 && n >= 2 }"]);
        let hull = pb.piece_domain(0).clone();
        let known = Set::parse("[n] -> { [i,j] : n >= 2 }").unwrap().conjuncts()[0].clone();
        let (_, guard, _) = split_hull(&hull, 0, &known);
        assert!(guard.is_universe(), "n >= 2 already known: {guard}");
    }

    #[test]
    fn nesting_depth_rules() {
        let pb = problem(&["[n] -> { [i,j] : 1 <= i <= 4 && 1 <= j <= 4 }"]);
        let u = Conjunct::universe(&pb.space);
        let leaf = Node::Leaf {
            active: vec![0],
            known: u.clone(),
            restriction: u.clone(),
            guards: vec![(0, u.clone())],
        };
        let inner = Node::Loop {
            active: vec![0],
            level: 2,
            known: u.clone(),
            restriction: u.clone(),
            bounds: u.clone(),
            guard: u.clone(),
            degenerate: false,
            body: Box::new(leaf),
        };
        assert_eq!(inner.nesting_depth(), 1);
        let outer_degen = Node::Loop {
            active: vec![0],
            level: 1,
            known: u.clone(),
            restriction: u.clone(),
            bounds: u.clone(),
            guard: u.clone(),
            degenerate: true,
            body: Box::new(inner),
        };
        assert_eq!(outer_degen.nesting_depth(), 1);
    }
}
