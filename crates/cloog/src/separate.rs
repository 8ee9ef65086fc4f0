//! Quilleré–Rajopadhye–Wilde separation: at each dimension, split the
//! projections of the active statements into disjoint regions, ordered
//! lexicographically.

use omega::{Conjunct, LinExpr, Set, Space};

/// A disjoint region at one level: the conjunct describing it and the
/// statement pieces active inside.
#[derive(Clone, Debug)]
pub(crate) struct Region {
    pub domain: Conjunct,
    pub active: Vec<usize>,
}

/// Separates the (already approximated) per-piece projections into disjoint
/// regions. Region count grows with overlap complexity — the code-explosion
/// behaviour the paper attributes to this algorithm family.
pub(crate) fn separate(projections: &[(usize, Set)], space: &Space) -> Vec<Region> {
    let mut regions: Vec<(Set, Vec<usize>)> = Vec::new();
    for (piece, p) in projections {
        if p.is_empty() {
            continue;
        }
        let mut next: Vec<(Set, Vec<usize>)> = Vec::new();
        let mut remainder = p.clone();
        for (dom, active) in regions {
            let inter = dom.intersect(p);
            let only_old = dom.subtract(p);
            if !inter.is_empty() {
                let mut a = active.clone();
                a.push(*piece);
                next.push((inter.clone(), a));
                remainder = remainder.subtract(&dom);
            }
            if !only_old.is_empty() {
                next.push((only_old, active));
            }
        }
        if !remainder.is_empty() {
            next.push((remainder, vec![*piece]));
        }
        regions = next;
    }
    // Fragment region unions into conjuncts (further code growth).
    let mut out = Vec::new();
    for (dom, active) in regions {
        for c in dom.make_disjoint() {
            let c = c.simplified();
            if c.is_sat() {
                out.push(Region {
                    domain: c,
                    active: active.clone(),
                });
            }
        }
    }
    let _ = space;
    out
}

/// Orders regions along dimension `v`: `a` strictly precedes `b` when no
/// point of `a` has a `v` value ≥ some point of `b` under a common prefix.
///
/// "Strictly before" is a *partial* order — parameter-dependent regions
/// like `[n+2, 5]` and `[6, n-1]` hold in *both* directions (they are
/// never non-empty together), and unrelated pairs in neither — so a
/// comparison sort is wrong: an incomparable neighbour can block an
/// element from reaching a region it is genuinely ordered against (found
/// by differential fuzzing as an out-of-order scan). Instead, place
/// regions by stable topological order of the one-directional relation;
/// pairs related in both directions are unordered (either order is
/// trivially correct), and on a relation cycle — a parametric ordering a
/// single static sequence cannot express — the smallest unplaced index is
/// forced, preserving input order within the cycle.
pub(crate) fn sort_regions(regions: &mut [Region], v: usize) {
    let n = regions.len();
    if n <= 1 {
        return;
    }
    let shadow = Shadow::new(regions[0].domain.space(), v);
    let sides: Vec<(Set, Set)> = regions.iter().map(|r| shadow.sides(&r.domain)).collect();
    let mut before = vec![false; n * n];
    for i in 0..n {
        for j in 0..n {
            if i != j {
                before[i * n + j] = Shadow::before(&sides[i], &sides[j]);
            }
        }
    }
    let must_precede = |i: usize, j: usize| -> bool { before[i * n + j] && !before[j * n + i] };
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    while order.len() < n {
        let ready =
            (0..n).find(|&i| !placed[i] && (0..n).all(|j| placed[j] || !must_precede(j, i)));
        let pick = ready.unwrap_or_else(|| (0..n).find(|&i| !placed[i]).unwrap());
        placed[pick] = true;
        order.push(pick);
    }
    let sorted: Vec<Region> = order.iter().map(|&i| regions[i].clone()).collect();
    regions.clone_from_slice(&sorted);
}

/// The space of a level's regions extended with a shadow copy of
/// dimension `v`, where "is every `v` of `a` strictly below every `v` of
/// `b` sharing the same outer coordinates (variables before `v`)?" is one
/// emptiness test between a side of `a` and a side of `b`.
struct Shadow {
    ext: Space,
    v: usize,
    /// The shadow's index in `ext`.
    shadow: usize,
    /// Number of inner dimensions (deeper than `v`).
    inner: usize,
    /// `v ≥ shadow` over `ext`.
    ge: Set,
}

impl Shadow {
    fn new(space: &Space, v: usize) -> Shadow {
        let mut vars: Vec<String> = space.var_names().to_vec();
        vars.push(format!("__{}shadow", space.var_name(v)));
        let pr: Vec<&str> = space.param_names().iter().map(String::as_str).collect();
        let vr: Vec<&str> = vars.iter().map(String::as_str).collect();
        let ext = Space::new(&pr, &vr);
        let shadow = ext.n_vars() - 1;
        let ge = LinExpr::var(&ext, v).geq(LinExpr::var(&ext, shadow));
        Shadow {
            ge: Set::from_constraints(&ext, [ge]),
            inner: space.n_vars().saturating_sub(v + 1),
            ext,
            v,
            shadow,
        }
    }

    /// A region's two sides, built once per sort: as the earlier region
    /// (`v` in place, intersected with `v ≥ shadow`) and as the later one
    /// (`v` moved to the shadow). Inner dimensions are projected out of
    /// both, so the two copies share only the outer prefix and `v`.
    fn sides(&self, c: &Conjunct) -> (Set, Set) {
        let project = |c: Conjunct| {
            let s = c.to_set();
            if self.inner > 0 {
                s.project_out(self.v + 1, self.inner)
            } else {
                s
            }
        };
        let a = c.embed_into(&self.ext);
        let b = a.swap_vars(self.v, self.shadow);
        (project(a).intersect(&self.ge), project(b))
    }

    /// Is `a` strictly before `b`? No point of `a` has `v ≥` the `v` of a
    /// point of `b` with the same outer coordinates.
    fn before(a: &(Set, Set), b: &(Set, Set)) -> bool {
        let late = b.1.conjuncts();
        a.0.conjuncts()
            .iter()
            .all(|x| late.iter().all(|y| !x.intersect(y).is_sat()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(t: &str) -> Set {
        Set::parse(t).unwrap()
    }

    #[test]
    fn separate_overlap_three_ways() {
        let space = set("{ [i] }").space().clone();
        let a = set("{ [i] : 0 <= i <= 6 }");
        let b = set("{ [i] : 4 <= i <= 9 }");
        let mut regions = separate(&[(0, a), (1, b)], &space);
        sort_regions(&mut regions, 0);
        assert_eq!(regions.len(), 3);
        assert_eq!(regions[0].active, vec![0]);
        assert_eq!(regions[1].active, vec![0, 1]);
        assert_eq!(regions[2].active, vec![1]);
        assert!(regions[0].domain.contains(&[], &[3]));
        assert!(regions[1].domain.contains(&[], &[5]));
        assert!(regions[2].domain.contains(&[], &[8]));
    }

    #[test]
    fn separate_identical_domains_single_region() {
        let space = set("{ [i] }").space().clone();
        let a = set("{ [i] : 0 <= i <= 6 }");
        let regions = separate(&[(0, a.clone()), (1, a)], &space);
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].active, vec![0, 1]);
    }

    fn strictly_before(a: &Conjunct, b: &Conjunct, v: usize) -> bool {
        let shadow = Shadow::new(a.space(), v);
        Shadow::before(&shadow.sides(a), &shadow.sides(b))
    }

    #[test]
    fn strictly_before_basic() {
        let a = set("{ [i] : 0 <= i <= 3 }").conjuncts()[0].clone();
        let b = set("{ [i] : 5 <= i <= 9 }").conjuncts()[0].clone();
        assert!(strictly_before(&a, &b, 0));
        assert!(!strictly_before(&b, &a, 0));
        assert!(!strictly_before(&a, &a, 0));
    }

    #[test]
    fn strictly_before_parametric() {
        let a = set("[n] -> { [i] : 0 <= i < n }").conjuncts()[0].clone();
        let b = set("[n] -> { [i] : i = n }").conjuncts()[0].clone();
        assert!(strictly_before(&a, &b, 0));
        assert!(!strictly_before(&b, &a, 0));
    }

    #[test]
    fn strictly_before_inner_dim_uses_prefix() {
        // Along j (dim 1) with shared i: a: j < i, b: j >= i.
        let a = set("[n] -> { [i,j] : 0 <= j < i }").conjuncts()[0].clone();
        let b = set("[n] -> { [i,j] : i <= j <= n }").conjuncts()[0].clone();
        assert!(strictly_before(&a, &b, 1));
        assert!(!strictly_before(&b, &a, 1));
    }

    #[test]
    fn sort_orders_three_fragments() {
        let space = set("{ [i] }").space().clone();
        let mk = |t: &str| Region {
            domain: set(t).conjuncts()[0].clone(),
            active: vec![0],
        };
        let mut rs = vec![
            mk("{ [i] : 10 <= i <= 12 }"),
            mk("{ [i] : 0 <= i <= 2 }"),
            mk("{ [i] : 5 <= i <= 7 }"),
        ];
        sort_regions(&mut rs, 0);
        let _ = &space;
        assert!(rs[0].domain.contains(&[], &[1]));
        assert!(rs[1].domain.contains(&[], &[6]));
        assert!(rs[2].domain.contains(&[], &[11]));
    }
}
