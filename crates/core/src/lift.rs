//! Loop overhead removal (paper Figure 4 and §3.2.2): lifting guard
//! conditions out of loops by duplicating code, bounded by the requested
//! loop nesting depth `d`, while preserving the lexicographic order of the
//! scanned iteration spaces.

use crate::ast::{Node, Problem};
use omega::{Conjunct, LinExpr};
use std::collections::{HashMap, HashSet};

/// A liftable overhead condition: a single-conjunct constraint whose
/// complement is also a single conjunct.
#[derive(Clone, Debug)]
pub(crate) struct Lift {
    pub cond: Conjunct,
    pub comp: Conjunct,
}

/// Repeatedly lifts overhead conditions out of subloops of nesting depth
/// `≤ d` until no candidate remains. Returns the restructured AST.
pub(crate) fn lift_overhead(pb: &Problem, mut root: Node, d: usize) -> Node {
    let mut rejected: HashSet<String> = HashSet::new();
    let mut inserted: HashMap<String, u32> = HashMap::new();
    // Each iteration inserts at least one split or rejects at least one
    // candidate, so this terminates; the cap is a defensive backstop.
    for pass in 0..10_000u32 {
        let _span = omega::span!(lift_pass, pass = pass, depth = d);
        let (cand, new_root) = lift(pb, root, d, false, &rejected, &mut inserted);
        root = new_root;
        match cand {
            None => return root,
            Some(l) => {
                // A candidate that reached the driver cannot be legally
                // inserted anywhere on its path: remember and skip it.
                rejected.insert(l.cond.to_string());
            }
        }
    }
    debug_assert!(false, "lift_overhead failed to converge");
    root
}

/// How often the textually same condition may be split on across one
/// `lift_overhead` run. When gist is exact every insertion discharges its
/// condition from the subtree's guards, so the same text only recurs
/// across originally-disjoint branches — far below this cap. A *degraded*
/// gist can fail to discharge, re-picking the same condition every driver
/// pass and growing the tree without bound; past the cap the candidate is
/// bubbled to the driver and rejected instead.
const MAX_SAME_COND_INSERTIONS: u32 = 64;

/// One pass of Figure 4. Returns a pending candidate (bubbling upward) and
/// the possibly restructured node.
fn lift(
    pb: &Problem,
    node: Node,
    d: usize,
    propagate_up: bool,
    rejected: &HashSet<String>,
    inserted: &mut HashMap<String, u32>,
) -> (Option<Lift>, Node) {
    match node {
        Node::Split { active, parts } => {
            let mut new_parts = Vec::with_capacity(parts.len());
            let mut pending: Option<Lift> = None;
            for (r, child) in parts {
                if pending.is_some() {
                    new_parts.push((r, child));
                    continue;
                }
                let (cand, c2) = lift(pb, child, d, propagate_up, rejected, inserted);
                new_parts.push((r, c2));
                pending = cand;
            }
            (
                pending,
                Node::Split {
                    active,
                    parts: new_parts,
                },
            )
        }
        Node::Leaf {
            active,
            known,
            restriction,
            guards,
        } => {
            // Conditions already separated by an enclosing split (i.e.
            // implied by the restriction) are not overhead anymore. A
            // universe guard gists to universe and can never yield an atom.
            let cand = guards
                .iter()
                .filter(|(_, g)| !g.is_universe())
                .flat_map(|(_, g)| pick_atom(&g.gist(&restriction), pb, rejected))
                .next();
            (
                cand,
                Node::Leaf {
                    active,
                    known,
                    restriction,
                    guards,
                },
            )
        }
        Node::Loop {
            active,
            level,
            known,
            restriction,
            bounds,
            guard,
            degenerate,
            body,
        } => {
            let depth = body.nesting_depth() + usize::from(!degenerate);
            if depth > d {
                // Too deep: only optimize within the subtree.
                let (_, b) = lift(pb, *body, d, false, rejected, inserted);
                return (
                    None,
                    Node::Loop {
                        active,
                        level,
                        known,
                        restriction,
                        bounds,
                        guard,
                        degenerate,
                        body: Box::new(b),
                    },
                );
            }
            // Inside a depth-≤-d subloop. Guard conditions already implied
            // by the restriction were lifted by an enclosing split.
            if propagate_up && !guard.is_universe() {
                if let Some(l) = pick_atom(&guard.gist(&restriction), pb, rejected) {
                    return (
                        Some(l),
                        Node::Loop {
                            active,
                            level,
                            known,
                            restriction,
                            bounds,
                            guard,
                            degenerate,
                            body,
                        },
                    );
                }
            }
            let body_pu = propagate_up || !degenerate;
            let (cand, b) = lift(pb, *body, d, body_pu, rejected, inserted);
            let node = Node::Loop {
                active,
                level,
                known,
                restriction,
                bounds,
                guard,
                degenerate,
                body: Box::new(b),
            };
            let Some(mut l) = cand else {
                return (None, node);
            };
            // Degenerate loop: substitute the defining equality into the
            // candidate so it no longer references this level's variable.
            if let Node::Loop {
                degenerate: true,
                bounds,
                ..
            } = &node
            {
                let v = level - 1;
                if l.cond.uses_var(v) || l.comp.uses_var(v) {
                    if let Some((c, e)) = bounds.equality_on(v) {
                        l = Lift {
                            cond: substitute_scaled(&l.cond, v, c, &e),
                            comp: substitute_scaled(&l.comp, v, c, &e),
                        };
                    }
                }
            }
            let legal = insertion_legal(&l, level);
            let at_limit = insertion_at_limit(&l, level);
            if !propagate_up || at_limit {
                if !legal {
                    // Cannot insert here or anywhere above: bubble to driver.
                    return (Some(l), node);
                }
                // Insert a split node here: two copies of the subtree, the
                // side with smaller loop values first.
                let count = inserted.entry(l.cond.to_string()).or_insert(0);
                *count += 1;
                if *count > MAX_SAME_COND_INSERTIONS {
                    // Splitting on this condition repeatedly has not
                    // discharged it (degraded gist): bubble it to the
                    // driver, which rejects it for the rest of the run.
                    return (Some(l), node);
                }
                let _span = omega::span!(lift_split, level = level);
                let v = level - 1;
                let sign = l.cond.var_sign_hint(v);
                let (first, second) = if sign > 0 {
                    (l.comp.clone(), l.cond.clone())
                } else {
                    (l.cond.clone(), l.comp.clone())
                };
                let (known_n, restriction_n, active_n) = match &node {
                    Node::Loop {
                        known,
                        restriction,
                        active,
                        ..
                    } => (known.clone(), restriction.clone(), active.clone()),
                    _ => unreachable!(),
                };
                let copy = node.clone();
                let r1 = restriction_n.intersect(&first);
                let r2 = restriction_n.intersect(&second);
                // The two split sides are independent subtrees: recompute
                // them in parallel, keeping (first, second) order.
                let halves = omega::par::map_ordered(
                    vec![(node, first, r1), (copy, second, r2)],
                    |(n, side, r)| n.recompute(pb, &active_n, &known_n, &r).map(|c| (side, c)),
                );
                let parts: Vec<_> = halves.into_iter().flatten().collect();
                let split = match parts.len() {
                    0 => unreachable!("both split sides empty"),
                    1 => parts.into_iter().next().unwrap().1,
                    _ => {
                        let mut act: Vec<usize> = Vec::new();
                        for (_, n) in &parts {
                            for p in n.active() {
                                if !act.contains(p) {
                                    act.push(*p);
                                }
                            }
                        }
                        act.sort_unstable();
                        Node::Split { active: act, parts }
                    }
                };
                // Re-lifting the split relies on the new restrictions
                // discharging the inserted condition from every guard's
                // gist. A degraded gist can fail to, re-picking the same
                // atom and inserting the same split forever — bar it
                // from this subtree (a no-op when gist is exact: the
                // condition is already discharged).
                let mut rejected = rejected.clone();
                rejected.insert(l.cond.to_string());
                return lift(pb, split, d, propagate_up, &rejected, inserted);
            }
            (Some(l), node)
        }
    }
}

/// Is inserting a split for `l` at loop `level` (1-based) legal — i.e. does
/// the condition reference only variables the split may mention there?
/// Non-existential conditions may reference up to this level's variable
/// (range split); existential (stride) conditions only strictly enclosing
/// levels.
fn insertion_legal(l: &Lift, level: usize) -> bool {
    let max_v = l
        .cond
        .max_var_used()
        .max(l.comp.max_var_used())
        .map(|v| v + 1) // 1-based level of deepest referenced variable
        .unwrap_or(0);
    if l.cond.n_locals() > 0 || l.comp.n_locals() > 0 {
        max_v <= level.saturating_sub(1)
    } else {
        max_v <= level
    }
}

/// Has the candidate reached the highest level it may be lifted to
/// (paper conditions (2) and (3))?
fn insertion_at_limit(l: &Lift, level: usize) -> bool {
    let max_v = l
        .cond
        .max_var_used()
        .max(l.comp.max_var_used())
        .map(|v| v + 1)
        .unwrap_or(0);
    if l.cond.n_locals() > 0 || l.comp.n_locals() > 0 {
        max_v == level.saturating_sub(1)
    } else {
        max_v == level
    }
}

/// Picks one guard atom with a single-conjunct complement, skipping
/// rejected candidates and candidates that could never be inserted at any
/// loop level of this problem.
fn pick_atom(guard: &Conjunct, pb: &Problem, rejected: &HashSet<String>) -> Option<Lift> {
    if guard.is_universe() || guard.is_known_false() {
        return None;
    }
    for atom in guard.guard_atoms() {
        let Some(comp) = atom.complement_single() else {
            continue;
        };
        if rejected.contains(&atom.to_string()) {
            continue;
        }
        let l = Lift { cond: atom, comp };
        // An existential condition on the innermost level can never be
        // lifted above any loop.
        if l.cond.n_locals() > 0 {
            if let Some(v) = l.cond.max_var_used().max(l.comp.max_var_used()) {
                if v + 2 > pb.max_level {
                    continue;
                }
            }
        }
        return Some(l);
    }
    None
}

/// Substitutes `c·v = e` into a conjunct: every row is scaled so that the
/// occurrence of `v` can be replaced by `e/c` exactly.
pub(crate) fn substitute_scaled(conj: &Conjunct, v: usize, c: i64, e: &LinExpr) -> Conjunct {
    let mut out = conj.clone();
    if c == 1 {
        out.substitute_var(v, e);
        return out.simplified();
    }
    // c > 1: multiply rows mentioning v by c, then substitute c·v with e.
    // Conjunct::substitute_var requires a direct expression, so emulate via
    // an intermediate: intersect with the equality and project v out.
    let space = conj.space().clone();
    let mut eq = Conjunct::universe(&space);
    eq.add_constraint(&(LinExpr::var(&space, v) * c - e.clone()).eq0());
    let merged = out.intersect(&eq);
    let projected = merged.to_set().project_out(v, 1);
    match projected.as_single_conjunct() {
        Some(one) => one.clone(),
        None => projected.hull(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega::Set;

    fn conj(text: &str) -> Conjunct {
        Set::parse(text).unwrap().conjuncts()[0].clone()
    }

    fn dummy_problem() -> Problem {
        let space = Set::parse("[n] -> { [i,j] }").unwrap().space().clone();
        Problem::new(space, Vec::new(), 2)
    }

    #[test]
    fn pick_atom_prefers_liftable() {
        let pb = dummy_problem();
        let g = conj("[n] -> { [i,j] : n >= 2 }");
        let l = pick_atom(&g, &pb, &HashSet::new()).expect("liftable");
        assert!(l.cond.contains(&[2], &[0, 0]));
        assert!(l.comp.contains(&[1], &[0, 0]));
        // An equality guard has no single-conjunct complement.
        let g = conj("[n] -> { [i,j] : n = 2 }");
        assert!(pick_atom(&g, &pb, &HashSet::new()).is_none());
    }

    #[test]
    fn pick_atom_skips_rejected() {
        let pb = dummy_problem();
        let g = conj("[n] -> { [i,j] : n >= 2 }");
        let l = pick_atom(&g, &pb, &HashSet::new()).unwrap();
        let mut rej = HashSet::new();
        rej.insert(l.cond.to_string());
        assert!(pick_atom(&g, &pb, &rej).is_none());
    }

    #[test]
    fn pick_atom_skips_innermost_stride() {
        let pb = dummy_problem();
        // Stride on j (innermost) can never be lifted above a loop.
        let g = conj("[n] -> { [i,j] : exists(a : j = 2a) }");
        assert!(pick_atom(&g, &pb, &HashSet::new()).is_none());
        // Stride on i can be lifted above the j loop.
        let g = conj("[n] -> { [i,j] : exists(a : i = 2a) }");
        assert!(pick_atom(&g, &pb, &HashSet::new()).is_some());
    }

    #[test]
    fn legality_rules() {
        let cond = conj("[n] -> { [i,j] : i >= 5 }");
        let comp = cond.complement_single().unwrap();
        let l = Lift { cond, comp };
        assert!(insertion_legal(&l, 1)); // split loop i's range at level 1
        assert!(insertion_at_limit(&l, 1));
        assert!(!insertion_at_limit(&l, 2));
        let cond = conj("[n] -> { [i,j] : exists(a : i = 2a) }");
        let comp = cond.complement_single().unwrap();
        let l = Lift { cond, comp };
        assert!(!insertion_legal(&l, 1)); // stride on i cannot split loop i
        assert!(insertion_legal(&l, 2)); // but may sit between loops i and j
        assert!(insertion_at_limit(&l, 2));
    }

    #[test]
    fn substitute_scaled_unit() {
        let c = conj("[n] -> { [i,j] : j >= i }");
        let e = Set::parse("[n] -> { [i,j] }").unwrap();
        let expr = omega::LinExpr::param(e.space(), 0); // i := n
        let out = substitute_scaled(&c, 0, 1, &expr);
        assert!(out.contains(&[3], &[99, 5]));
        assert!(!out.contains(&[3], &[99, 2]));
    }

    #[test]
    fn substitute_scaled_nonunit() {
        // 2i = n substituted into j >= i ⇒ 2j >= n
        let c = conj("[n] -> { [i,j] : j >= i }");
        let e = Set::parse("[n] -> { [i,j] }").unwrap();
        let expr = omega::LinExpr::param(e.space(), 0);
        let out = substitute_scaled(&c, 0, 2, &expr);
        assert!(out.contains(&[6], &[99, 3]));
        assert!(!out.contains(&[6], &[99, 2]));
    }
}
