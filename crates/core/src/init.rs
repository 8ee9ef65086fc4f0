//! Building the initial AST (paper Figure 2): the minimal-code-size tree in
//! which overlapping polyhedra share loop nodes and disjoint ones are
//! separated by split nodes.

use crate::ast::{Node, Problem};
use omega::{Conjunct, Constraint, ConstraintKind, Set};

/// Builds the initial AST over all pieces with no restriction.
pub(crate) fn init_ast(pb: &Problem) -> Node {
    let all: Vec<usize> = (0..pb.pieces.len()).collect();
    build(pb, 1, all, Conjunct::universe(&pb.space))
}

fn build(pb: &Problem, level: usize, active: Vec<usize>, restriction: Conjunct) -> Node {
    if level > pb.max_level {
        return Node::Leaf {
            active,
            known: Conjunct::universe(&pb.space),
            restriction,
            guards: Vec::new(),
        };
    }
    if active.len() == 1 {
        let body = build(pb, level + 1, active.clone(), restriction.clone());
        return loop_node(pb, level, active, restriction, body);
    }
    // R_s = Approximate(restriction ∩ Project(IS_s, inner)) — no existentials.
    let rs: Vec<(usize, Conjunct)> = active
        .iter()
        .map(|&p| {
            let r = pb
                .project_inner(p, level)
                .intersect_conjunct(&restriction)
                .approximate();
            (p, r.hull())
        })
        .collect();
    // Each piece's set form is a pure function of `rs`; build it once here
    // rather than once per (piece, candidate) subset test inside the loop.
    let rsets: Vec<Set> = rs.iter().map(|(_, r)| r.to_set()).collect();
    let v = level - 1;
    // Overlapping pieces share bound constraints, so the same candidate
    // tends to come up once per piece; testing it again cannot succeed
    // where the first identical test failed.
    let mut tried: Vec<Constraint> = Vec::new();
    for (_, r) in &rs {
        for cand in split_candidates(r, v) {
            if tried.contains(&cand) {
                continue;
            }
            tried.push(cand.clone());
            if let Some((side_a, side_b)) = try_split(&rs, &rsets, &cand) {
                // Order children so the side with smaller loop-variable
                // values comes first (lexicographic order of the result).
                let coeff = cand.expr().var_coeff(v);
                let (first, second) = if coeff > 0 {
                    (side_b, side_a) // cand is a lower bound: its side is larger
                } else {
                    (side_a, side_b)
                };
                let (first_active, first_cons) = first;
                let (second_active, second_cons) = second;
                let r1 = restriction.intersect(&conj_of(&pb.space, &first_cons));
                let r2 = restriction.intersect(&conj_of(&pb.space, &second_cons));
                let c1 = build(pb, level, first_active, r1.clone());
                let c2 = build(pb, level, second_active, r2.clone());
                let mut active_all = Vec::new();
                for p in c1.active().iter().chain(c2.active()) {
                    if !active_all.contains(p) {
                        active_all.push(*p);
                    }
                }
                active_all.sort_unstable();
                return Node::Split {
                    active: active_all,
                    parts: vec![(r1, c1), (r2, c2)],
                };
            }
        }
    }
    let body = build(pb, level + 1, active.clone(), restriction.clone());
    loop_node(pb, level, active, restriction, body)
}

fn loop_node(
    pb: &Problem,
    level: usize,
    active: Vec<usize>,
    restriction: Conjunct,
    body: Node,
) -> Node {
    let u = Conjunct::universe(&pb.space);
    Node::Loop {
        active,
        level,
        known: u.clone(),
        restriction,
        bounds: u.clone(),
        guard: u,
        degenerate: false,
        body: Box::new(body),
    }
}

fn conj_of(space: &omega::Space, c: &Constraint) -> Conjunct {
    Conjunct::from_constraints(space, [c.clone()])
}

/// Candidate split constraints from an approximated piece space: its
/// inequalities on `v`, plus both inequality sides of each equality on `v`.
fn split_candidates(r: &Conjunct, v: usize) -> Vec<Constraint> {
    let mut out = Vec::new();
    for c in r.constraints_on_var(v) {
        match c.kind() {
            ConstraintKind::Geq => out.push(c),
            ConstraintKind::Eq => {
                let e = c.expr().clone();
                out.push(e.clone().geq0());
                out.push((-e).geq0());
            }
        }
    }
    out
}

/// Tests whether `cand` splits the pieces into two non-empty groups that
/// lie entirely inside `cand` and entirely inside `¬cand` respectively.
/// Returns the groups with the constraint each satisfies.
type Side = (Vec<usize>, Constraint);

fn try_split(rs: &[(usize, Conjunct)], rsets: &[Set], cand: &Constraint) -> Option<(Side, Side)> {
    let space = cand.space().clone();
    let c_set = Set::from_constraints(&space, [cand.clone()]);
    let not_c = c_set.complement();
    let not_cand_conj = not_c.as_single_conjunct()?.clone();
    let not_cand = not_cand_conj.local_free_constraints().first()?.clone();
    let mut inside = Vec::new();
    let mut outside = Vec::new();
    for ((p, _), rset) in rs.iter().zip(rsets) {
        if rset.is_subset(&c_set) {
            inside.push(*p);
        } else if rset.is_subset(&not_c) {
            outside.push(*p);
        } else {
            return None; // piece straddles the candidate
        }
    }
    if inside.is_empty() || outside.is_empty() {
        return None;
    }
    Some(((inside, cand.clone()), (outside, not_cand)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Piece;

    fn problem(domains: &[&str]) -> Problem {
        let sets: Vec<Set> = domains.iter().map(|d| Set::parse(d).unwrap()).collect();
        let space = sets[0].space().clone();
        let pieces: Vec<Piece> = sets
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
    fn single_statement_is_loop_chain() {
        let pb = problem(&["[n] -> { [i,j] : 0 <= i < n && 0 <= j < i }"]);
        let ast = init_ast(&pb);
        match &ast {
            Node::Loop { level, body, .. } => {
                assert_eq!(*level, 1);
                match body.as_ref() {
                    Node::Loop { level, body, .. } => {
                        assert_eq!(*level, 2);
                        assert!(matches!(body.as_ref(), Node::Leaf { .. }));
                    }
                    other => panic!("expected inner loop, got {other:?}"),
                }
            }
            other => panic!("expected loop, got {other:?}"),
        }
    }

    #[test]
    fn overlapping_statements_share_loops() {
        let pb = problem(&["[n] -> { [i] : 0 <= i < n }", "[n] -> { [i] : 0 <= i < n }"]);
        let ast = init_ast(&pb);
        match &ast {
            Node::Loop { active, body, .. } => {
                assert_eq!(active.len(), 2);
                assert!(matches!(body.as_ref(), Node::Leaf { .. }));
            }
            other => panic!("expected shared loop, got {other:?}"),
        }
    }

    #[test]
    fn disjoint_statements_split() {
        let pb = problem(&["{ [i] : 0 <= i <= 4 }", "{ [i] : 10 <= i <= 14 }"]);
        let ast = init_ast(&pb);
        match &ast {
            Node::Split { parts, .. } => {
                assert_eq!(parts.len(), 2);
                // Lexicographic order: first child must hold piece 0 (smaller i).
                assert_eq!(parts[0].1.active(), &[0]);
                assert_eq!(parts[1].1.active(), &[1]);
            }
            other => panic!("expected split, got {other:?}"),
        }
    }

    #[test]
    fn figure7_level2_splits_padded_statement() {
        // s0 padded at t2 = 0; s1 spans 1..100: at level 2 they separate.
        let pb = problem(&[
            "[n] -> { [i,j] : 1 <= i <= 100 && j = 0 && n >= 2 }",
            "[n] -> { [i,j] : 1 <= i <= 100 && 1 <= j <= 100 && n >= 2 }",
        ]);
        let ast = init_ast(&pb);
        // Level 1 overlaps → loop; inside, level 2 splits with s0 first.
        match &ast {
            Node::Loop { level: 1, body, .. } => match body.as_ref() {
                Node::Split { parts, .. } => {
                    assert_eq!(parts.len(), 2);
                    assert_eq!(parts[0].1.active(), &[0]);
                    assert_eq!(parts[1].1.active(), &[1]);
                }
                other => panic!("expected split at level 2, got {other:?}"),
            },
            other => panic!("expected loop at level 1, got {other:?}"),
        }
    }

    #[test]
    fn interleaved_strides_do_not_split() {
        // Even and odd statements overlap as ranges after Approximate.
        let pb = problem(&[
            "{ [i] : 1 <= i <= 20 && exists(a : i = 2a) }",
            "{ [i] : 1 <= i <= 20 && exists(a : i = 2a + 1) }",
        ]);
        let ast = init_ast(&pb);
        assert!(
            matches!(ast, Node::Loop { .. }),
            "strides interleave: {ast:?}"
        );
    }
}
