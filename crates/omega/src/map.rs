//! Affine mapping functions between iteration spaces (paper §2.1): a loop
//! transformation is a mapping applied to an iteration space, e.g. loop
//! interchange is `{[i,j] → [j,i]}`. Images are computed exactly through
//! relation projection, so non-unimodular maps produce the expected stride
//! constraints (`{[i] → [2i]}` yields `∃a: out = 2a`).

use crate::linexpr::LinExpr;
use crate::set::Set;
use crate::space::Space;
use std::fmt;

/// An affine map `dst_k = exprs[k](src)` from one [`Space`] to another
/// (parameters must agree).
///
/// # Examples
///
/// ```
/// use omega::{AffineMap, LinExpr, Set, Space};
/// let src = Space::new(&["n"], &["i", "j"]);
/// let dst = Space::new(&["n"], &["x", "y"]);
/// // Interchange: (i, j) → (j, i).
/// let m = AffineMap::new(
///     src.clone(),
///     dst,
///     vec![LinExpr::var(&src, 1), LinExpr::var(&src, 0)],
/// );
/// let s = Set::parse("[n] -> { [i,j] : 0 <= i < n && 0 <= j < i }").unwrap();
/// let image = m.apply(&s);
/// assert!(image.contains(&[10], &[3, 5])); // (5,3) → (3,5)
/// assert!(!image.contains(&[10], &[5, 3]));
/// ```
#[derive(Clone, Debug)]
pub struct AffineMap {
    src: Space,
    dst: Space,
    exprs: Vec<LinExpr>,
}

impl AffineMap {
    /// Builds a map from per-output expressions over the source space.
    ///
    /// # Panics
    ///
    /// Panics if parameter lists differ, the expression count does not
    /// match the destination arity, or an expression is over another space.
    pub fn new(src: Space, dst: Space, exprs: Vec<LinExpr>) -> AffineMap {
        assert_eq!(
            src.param_names(),
            dst.param_names(),
            "mapping must preserve parameters"
        );
        assert_eq!(exprs.len(), dst.n_vars(), "one expression per output dim");
        for e in &exprs {
            assert_eq!(e.space(), &src, "expression over the wrong space");
        }
        AffineMap { src, dst, exprs }
    }

    /// The identity map on `space`.
    pub fn identity(space: &Space) -> AffineMap {
        let exprs = (0..space.n_vars())
            .map(|v| LinExpr::var(space, v))
            .collect();
        AffineMap::new(space.clone(), space.clone(), exprs)
    }

    /// Source space.
    pub fn src(&self) -> &Space {
        &self.src
    }

    /// Destination space.
    pub fn dst(&self) -> &Space {
        &self.dst
    }

    /// The output expressions.
    pub fn exprs(&self) -> &[LinExpr] {
        &self.exprs
    }

    /// Exact image of a set under the map, computed through relation
    /// projection: constraints `dst_k = e_k(src)` are conjoined with the
    /// set over a combined space and the source dimensions are projected
    /// away. Non-invertible maps produce stride constraints, collapsing
    /// maps lose information — both exactly.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not over the source space.
    pub fn apply(&self, s: &Set) -> Set {
        assert_eq!(s.space(), &self.src, "set over the wrong space");
        let ns = self.src.n_vars();
        let nd = self.dst.n_vars();
        // Combined space [src vars..., dst vars...].
        let mut names: Vec<String> = (0..ns).map(|v| format!("__s{v}")).collect();
        names.extend(self.dst.var_names().iter().cloned());
        let pr: Vec<&str> = self.src.param_names().iter().map(String::as_str).collect();
        let vr: Vec<&str> = names.iter().map(String::as_str).collect();
        let combined = Space::new(&pr, &vr);
        // Embed the set on the source half.
        let map_idx: Vec<usize> = (0..ns).collect();
        let mut joint = s.remap_vars(&combined, &map_idx);
        // dst_k - e_k(src) = 0.
        for (k, e) in self.exprs.iter().enumerate() {
            let e_c = e.remap_vars(&combined, &map_idx);
            let c = (LinExpr::var(&combined, ns + k) - e_c).eq0();
            joint = joint.intersect_constraint(&c);
        }
        // Project out the source half and drop those dimensions.
        let projected = joint.project_out(0, ns);
        let out_map: Vec<usize> = (0..ns)
            .map(|_| 0) // placeholder, replaced below
            .chain(0..nd)
            .collect();
        // remap_vars requires distinct targets for every source dim; since
        // the first `ns` dims are unconstrained after projection we cannot
        // simply drop them via remap. Rebuild through raw rows instead.
        let _ = out_map;
        let mut out = Set::empty(&self.dst);
        for c in projected.conjuncts() {
            out.union_with(&drop_leading_vars(c, &combined, &self.dst, ns));
        }
        out
    }

    /// Composition `other ∘ self` (apply `self` first).
    ///
    /// # Panics
    ///
    /// Panics if the spaces do not chain.
    pub fn then(&self, other: &AffineMap) -> AffineMap {
        assert_eq!(&self.dst, &other.src, "maps do not compose");
        let exprs = other
            .exprs
            .iter()
            .map(|e| {
                // Substitute each dst var of `self` into `other`'s expr.
                let mut raw = vec![0i64; 1 + self.src.n_named()];
                raw[0] = e.constant_term();
                for p in 0..self.src.n_params() {
                    raw[1 + p] = e.param_coeff(p);
                }
                let mut acc = LinExpr::from_raw(&self.src, &raw);
                for v in 0..other.src.n_vars() {
                    let k = e.var_coeff(v);
                    if k != 0 {
                        acc = acc + self.exprs[v].clone() * k;
                    }
                }
                acc
            })
            .collect();
        AffineMap::new(self.src.clone(), other.dst.clone(), exprs)
    }

    /// Inverse of a **unimodular** map (determinant ±1 on the variable
    /// part; translations and parameter offsets allowed). Returns `None`
    /// when the map is not square or not unimodular — such reorderings do
    /// not preserve the amount of work (paper §2.1).
    pub fn inverse(&self) -> Option<AffineMap> {
        let n = self.src.n_vars();
        if self.dst.n_vars() != n {
            return None;
        }
        // Variable-part matrix A with dst = A·src + B·params + c.
        let a: Vec<Vec<i64>> = self
            .exprs
            .iter()
            .map(|e| (0..n).map(|v| e.var_coeff(v)).collect())
            .collect();
        let det = determinant(&a);
        if det.abs() != 1 {
            return None;
        }
        let adj = adjugate(&a);
        // inv(A) = adj(A) / det; with det ±1 this is integral.
        let inv: Vec<Vec<i64>> = adj
            .iter()
            .map(|row| row.iter().map(|&x| x * det).collect())
            .collect();
        // src = inv(A)·(dst - B·params - c)
        let np = self.src.n_params();
        let mut exprs = Vec::with_capacity(n);
        for inv_i in &inv {
            let mut raw = vec![0i64; 1 + self.dst.n_named()];
            for (j, &w) in inv_i.iter().enumerate() {
                // coefficient of dst_j
                raw[1 + np + j] = w;
                // subtract inv * (B params + c)
                raw[0] -= w * self.exprs[j].constant_term();
                for p in 0..np {
                    raw[1 + p] -= w * self.exprs[j].param_coeff(p);
                }
            }
            exprs.push(LinExpr::from_raw(&self.dst, &raw));
        }
        Some(AffineMap::new(self.dst.clone(), self.src.clone(), exprs))
    }
}

fn drop_leading_vars(
    c: &crate::conjunct::Conjunct,
    combined: &Space,
    dst: &Space,
    ns: usize,
) -> Set {
    debug_assert!(
        (0..ns).all(|v| !c.uses_var(v)),
        "projection left a source var"
    );
    let named_src = 1 + combined.n_named();
    let mut out = crate::conjunct::Conjunct::universe(dst);
    for _ in 0..c.n_locals() {
        out.add_local();
    }
    let np = combined.n_params();
    let named_dst = 1 + dst.n_named();
    for (kind, row) in c.rows_raw() {
        let mut r = vec![0i64; named_dst + c.n_locals()];
        r[0] = row[0];
        r[1..1 + np].copy_from_slice(&row[1..1 + np]);
        let nv = dst.n_vars();
        r[1 + np..1 + np + nv].copy_from_slice(&row[1 + np + ns..1 + np + ns + nv]);
        r[named_dst..named_dst + c.n_locals()]
            .copy_from_slice(&row[named_src..named_src + c.n_locals()]);
        out.push_row(crate::conjunct::Row::new(kind, r));
    }
    out.to_set()
}

fn determinant(a: &[Vec<i64>]) -> i64 {
    let n = a.len();
    if n == 0 {
        return 1;
    }
    if n == 1 {
        return a[0][0];
    }
    // Laplace expansion (loop dimensions are small).
    let mut det = 0i64;
    for (j, &x) in a[0].iter().enumerate() {
        if x == 0 {
            continue;
        }
        let minor: Vec<Vec<i64>> = a[1..]
            .iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .filter(|&(k, _)| k != j)
                    .map(|(_, &v)| v)
                    .collect()
            })
            .collect();
        let sign = if j % 2 == 0 { 1 } else { -1 };
        det += sign * x * determinant(&minor);
    }
    det
}

fn adjugate(a: &[Vec<i64>]) -> Vec<Vec<i64>> {
    let n = a.len();
    let mut adj = vec![vec![0i64; n]; n];
    for (j, adj_row) in adj.iter_mut().enumerate() {
        for (i, slot) in adj_row.iter_mut().enumerate() {
            let minor: Vec<Vec<i64>> = (0..n)
                .filter(|&r| r != i)
                .map(|r| (0..n).filter(|&c| c != j).map(|c| a[r][c]).collect())
                .collect();
            let sign = if (i + j) % 2 == 0 { 1 } else { -1 };
            *slot = sign * determinant(&minor); // transpose of cofactors
        }
    }
    adj
}

impl fmt::Display for AffineMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ins = self.src.var_names().join(",");
        let outs: Vec<String> = self.exprs.iter().map(|e| e.to_string()).collect();
        write!(f, "{{[{ins}] -> [{}]}}", outs.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spaces() -> (Space, Space) {
        (
            Space::new(&["n"], &["i", "j"]),
            Space::new(&["n"], &["x", "y"]),
        )
    }

    #[test]
    fn interchange_image_matches_paper_intro() {
        let (src, dst) = spaces();
        let m = AffineMap::new(
            src.clone(),
            dst,
            vec![LinExpr::var(&src, 1), LinExpr::var(&src, 0)],
        );
        let s = Set::parse("[n] -> { [i,j] : 0 <= i < n && 0 <= j < i }").unwrap();
        let image = m.apply(&s);
        for i in -1..7 {
            for j in -1..7 {
                assert_eq!(
                    s.contains(&[6], &[i, j]),
                    image.contains(&[6], &[j, i]),
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn non_unimodular_map_produces_stride() {
        let src = Space::new::<&str>(&[], &["i"]);
        let dst = Space::new::<&str>(&[], &["x"]);
        let m = AffineMap::new(src.clone(), dst, vec![LinExpr::var(&src, 0) * 2 + 1]);
        let s = Set::parse("{ [i] : 0 <= i <= 10 }").unwrap();
        let image = m.apply(&s);
        for x in -2..25 {
            assert_eq!(
                image.contains(&[], &[x]),
                (1..=21).contains(&x) && x % 2 == 1,
                "x={x}"
            );
        }
        assert!(m.inverse().is_none(), "×2 is not unimodular");
    }

    #[test]
    fn skew_inverse_roundtrips() {
        let (src, dst) = spaces();
        // (i, j) → (i, j + 2i): unimodular skew.
        let m = AffineMap::new(
            src.clone(),
            dst.clone(),
            vec![
                LinExpr::var(&src, 0),
                LinExpr::var(&src, 1) + LinExpr::var(&src, 0) * 2,
            ],
        );
        let inv = m.inverse().expect("unimodular");
        let round = m.then(&inv);
        // round is the identity on points.
        let s = Set::parse("[n] -> { [i,j] : 0 <= i <= 4 && 0 <= j <= 4 }").unwrap();
        let back = round.apply(&s);
        assert!(back.same_set(&s), "{back}");
    }

    #[test]
    fn composition_applies_in_order() {
        let (src, dst) = spaces();
        let swap = AffineMap::new(
            src.clone(),
            dst.clone(),
            vec![LinExpr::var(&src, 1), LinExpr::var(&src, 0)],
        );
        let shift = AffineMap::new(
            dst.clone(),
            src.clone(),
            vec![LinExpr::var(&dst, 0) + 10, LinExpr::var(&dst, 1)],
        );
        let both = swap.then(&shift);
        let s = Set::parse("[n] -> { [i,j] : i = 1 && j = 2 }").unwrap();
        let image = both.apply(&s);
        // (1,2) → swap (2,1) → shift (12,1)
        assert!(image.contains(&[0], &[12, 1]), "{image}");
    }

    #[test]
    fn identity_and_display() {
        let (src, _) = spaces();
        let id = AffineMap::identity(&src);
        let s = Set::parse("[n] -> { [i,j] : 0 <= i <= 3 && j = i }").unwrap();
        assert!(id.apply(&s).same_set(&s));
        assert_eq!(id.to_string(), "{[i,j] -> [i,j]}");
    }

    #[test]
    fn translation_with_parameter_inverts() {
        let (src, dst) = spaces();
        // (i, j) → (i + n, j - 1)
        let m = AffineMap::new(
            src.clone(),
            dst,
            vec![
                LinExpr::var(&src, 0) + LinExpr::param(&src, 0),
                LinExpr::var(&src, 1) - 1,
            ],
        );
        let inv = m.inverse().expect("translation is unimodular");
        let s = Set::parse("[n] -> { [i,j] : i = 3 && j = 4 }").unwrap();
        let there = m.apply(&s);
        assert!(there.contains(&[5], &[8, 3]));
        let back = inv.apply(&there);
        assert!(back.same_set(&s), "{back}");
    }
}
