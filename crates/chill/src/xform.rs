//! Polyhedral loop transformations over [`LoopNest`]s: the composable
//! mapping operations (paper §2.1) a CHiLL-style framework applies before
//! handing the resulting iteration spaces to a polyhedra scanner.

use crate::nest::{LoopNest, NestStatement};
use omega::{Constraint, LinExpr, Set, Space};

impl LoopNest {
    /// Reorders the scanning dimensions: new dimension `k` scans what used
    /// to be dimension `order[k]` (loop interchange / permutation).
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the dimensions.
    pub fn permute(&self, order: &[usize]) -> LoopNest {
        let n = self.space().n_vars();
        assert_eq!(order.len(), n, "permutation arity mismatch");
        // map[old] = new position
        let mut map = vec![usize::MAX; n];
        for (new_pos, &old) in order.iter().enumerate() {
            assert!(old < n && map[old] == usize::MAX, "invalid permutation");
            map[old] = new_pos;
        }
        let names: Vec<String> = order
            .iter()
            .map(|&old| self.space().var_name(old).to_owned())
            .collect();
        let target = rename_space(self.space(), &names);
        let stmts = self
            .statements()
            .iter()
            .map(|s| NestStatement {
                name: s.name.clone(),
                domain: s.domain.remap_vars(&target, &map),
                args: s.args.iter().map(|a| a.remap_vars(&target, &map)).collect(),
            })
            .collect();
        LoopNest::with_parts(target, stmts)
    }

    /// Shifts dimension `dim` of one statement by `delta` (an expression
    /// over parameters and other dimensions): the statement's instances now
    /// execute at `dim + delta` (loop shifting, for alignment before
    /// fusion).
    ///
    /// # Panics
    ///
    /// Panics if `delta` mentions `dim` or spaces mismatch.
    pub fn shift(&self, stmt: usize, dim: usize, delta: &LinExpr) -> LoopNest {
        let mut out = self.clone();
        let s = &mut out.stmts_mut()[stmt];
        s.domain = s.domain.translate_var(dim, delta);
        // arg(v_old) with v_old = v_new - delta.
        s.args = s
            .args
            .iter()
            .map(|a| {
                let k = a.var_coeff(dim);
                a.clone() - delta.clone() * k
            })
            .collect();
        out
    }

    /// Skews dimension `dim` by `factor · source` for every statement:
    /// `dim' = dim + factor·source` (wavefront transformations).
    ///
    /// # Panics
    ///
    /// Panics if `dim == source`.
    pub fn skew(&self, dim: usize, source: usize, factor: i64) -> LoopNest {
        assert_ne!(dim, source, "cannot skew a dimension by itself");
        let delta = LinExpr::var(self.space(), source) * factor;
        let mut out = self.clone();
        for s in out.stmts_mut() {
            s.domain = s.domain.translate_var(dim, &delta);
            s.args = s
                .args
                .iter()
                .map(|a| {
                    let k = a.var_coeff(dim);
                    a.clone() - delta.clone() * k
                })
                .collect();
        }
        out
    }

    /// Strip-mines dimension `dim` by `size`: inserts a tile-counter
    /// dimension immediately before `dim` with
    /// `size·t ≤ dim ≤ size·t + size - 1`.
    ///
    /// # Panics
    ///
    /// Panics if `size < 1`.
    pub fn strip_mine(&self, dim: usize, size: i64) -> LoopNest {
        assert!(size >= 1, "strip-mine size must be at least 1");
        let n = self.space().n_vars();
        assert!(dim < n, "strip-mine dimension out of range");
        let mut names: Vec<String> = Vec::with_capacity(n + 1);
        for v in 0..n {
            if v == dim {
                names.push(unique_name(
                    self.space(),
                    &format!("{}t", self.space().var_name(dim)),
                ));
            }
            names.push(self.space().var_name(v).to_owned());
        }
        let target = rename_space(self.space(), &names);
        // old v → new index (shifted by one from `dim` on)
        let map: Vec<usize> = (0..n).map(|v| if v < dim { v } else { v + 1 }).collect();
        let t = LinExpr::var(&target, dim);
        let v = LinExpr::var(&target, dim + 1);
        let lower = (v.clone() - t.clone() * size).geq0(); // v >= size·t
        let upper = (t * size + (size - 1) - v).geq0(); // v <= size·t + size - 1
        let tile_box = Set::from_constraints(&target, [lower, upper]);
        let stmts = self
            .statements()
            .iter()
            .map(|s| NestStatement {
                name: s.name.clone(),
                domain: s.domain.remap_vars(&target, &map).intersect(&tile_box),
                args: s.args.iter().map(|a| a.remap_vars(&target, &map)).collect(),
            })
            .collect();
        LoopNest::with_parts(target, stmts)
    }

    /// Rectangular tiling of the contiguous dimensions `first..first+k`
    /// with the given sizes: strip-mines each and hoists all tile counters
    /// in order before the intra-tile loops.
    ///
    /// # Panics
    ///
    /// Panics if sizes is empty or the range is out of bounds.
    pub fn tile(&self, first: usize, sizes: &[i64]) -> LoopNest {
        let k = sizes.len();
        assert!(k >= 1 && first + k <= self.space().n_vars());
        // Strip-mine innermost-first so the original indices stay valid
        // (later strips insert dimensions only at or after the target).
        let mut nest = self.clone();
        for (j, &s) in sizes.iter().enumerate().rev() {
            nest = nest.strip_mine(first + j, s);
        }
        // Dims now: [..first) (t0 v0 t1 v1 … t_{k-1} v_{k-1}) (rest…).
        // Hoist the tile counters: (t0 t1 … v0 v1 …).
        let n = nest.space().n_vars();
        let mut order: Vec<usize> = (0..first).collect();
        for j in 0..k {
            order.push(first + 2 * j); // tile counters
        }
        for j in 0..k {
            order.push(first + 2 * j + 1); // intra-tile loops
        }
        order.extend(first + 2 * k..n);
        nest.permute(&order)
    }

    /// Unrolls dimension `dim` by `factor`: strip-mines by `factor` and
    /// replaces each statement with `factor` copies pinned to the residues
    /// (`dim = factor·t + r`), so the scanner emits a loop over tiles whose
    /// body is the unrolled straight-line code plus boundary cleanup.
    ///
    /// # Panics
    ///
    /// Panics if `factor < 2`.
    pub fn unroll(&self, dim: usize, factor: i64) -> LoopNest {
        assert!(factor >= 2, "unroll factor must be at least 2");
        let stripped = self.strip_mine(dim, factor);
        let space = stripped.space().clone();
        let t = LinExpr::var(&space, dim);
        let v = LinExpr::var(&space, dim + 1);
        let mut stmts = Vec::new();
        for s in stripped.statements() {
            for r in 0..factor {
                let pin = v.clone().eq(t.clone() * factor + r);
                let domain = s.domain.intersect_constraint(&pin);
                if domain.is_empty() {
                    continue;
                }
                stmts.push(NestStatement {
                    name: format!("{}u{r}", s.name),
                    domain,
                    args: s.args.clone(),
                });
            }
        }
        LoopNest::with_parts(space, stmts)
    }

    /// Unroll-and-jam: unrolls an *outer* dimension so that the copies are
    /// jammed inside the remaining inner loops (the classic gemv/gemm
    /// register-blocking transformation). Equivalent to [`LoopNest::unroll`]
    /// followed by sinking the pinned intra-tile dimension innermost.
    pub fn unroll_and_jam(&self, dim: usize, factor: i64) -> LoopNest {
        let unrolled = self.unroll(dim, factor);
        // Move the pinned residue dimension (dim+1) to the innermost
        // position so the copies jam inside the inner loops.
        let n = unrolled.space().n_vars();
        let mut order: Vec<usize> = (0..n).filter(|&v| v != dim + 1).collect();
        order.push(dim + 1);
        unrolled.permute(&order)
    }

    /// Index-set splitting: replaces statement `stmt` by two statements
    /// covering `domain ∩ c` and `domain ∖ c` (suffixes `_a`/`_b`).
    pub fn split_stmt(&self, stmt: usize, c: &Constraint) -> LoopNest {
        let mut out = self.clone();
        let s = out.stmts_mut().remove(stmt);
        let c_set = Set::from_constraints(s.domain.space(), [c.clone()]);
        let inside = s.domain.intersect(&c_set);
        let outside = s.domain.subtract(&c_set);
        let mut pieces = Vec::new();
        if !inside.is_empty() {
            pieces.push(NestStatement {
                name: format!("{}_a", s.name),
                domain: inside,
                args: s.args.clone(),
            });
        }
        if !outside.is_empty() {
            pieces.push(NestStatement {
                name: format!("{}_b", s.name),
                domain: outside,
                args: s.args.clone(),
            });
        }
        for (k, p) in pieces.into_iter().enumerate() {
            out.stmts_mut().insert(stmt + k, p);
        }
        out
    }

    /// Peels the iterations of `stmt` satisfying `c` into a separate
    /// statement placed before the remainder (loop peeling is index-set
    /// splitting at a boundary).
    pub fn peel(&self, stmt: usize, c: &Constraint) -> LoopNest {
        self.split_stmt(stmt, c)
    }

    /// Adds a leading "order" dimension pinned to `positions[s]` for each
    /// statement — loop distribution / fission (statements with different
    /// positions get separate outer loops).
    ///
    /// # Panics
    ///
    /// Panics if `positions.len() != self.len()`.
    pub fn distribute(&self, positions: &[i64]) -> LoopNest {
        assert_eq!(positions.len(), self.len());
        let n = self.space().n_vars();
        let mut names = vec![unique_name(self.space(), "ord")];
        names.extend(self.space().var_names().iter().cloned());
        let target = rename_space(self.space(), &names);
        let map: Vec<usize> = (1..=n).collect();
        let stmts = self
            .statements()
            .iter()
            .zip(positions)
            .map(|(s, &pos)| {
                let pin = LinExpr::var(&target, 0).eq(LinExpr::constant(&target, pos));
                NestStatement {
                    name: s.name.clone(),
                    domain: s
                        .domain
                        .remap_vars(&target, &map)
                        .intersect_constraint(&pin),
                    args: s.args.iter().map(|a| a.remap_vars(&target, &map)).collect(),
                }
            })
            .collect();
        LoopNest::with_parts(target, stmts)
    }

    /// Fuses by dropping a leading order dimension whose value no longer
    /// matters (inverse of [`LoopNest::distribute`] after alignment): the
    /// first dimension is projected away.
    pub fn fuse_leading(&self) -> LoopNest {
        let n = self.space().n_vars();
        assert!(n >= 1);
        let names: Vec<String> = self.space().var_names()[1..].to_vec();
        let target = rename_space(self.space(), &names);
        let stmts = self
            .statements()
            .iter()
            .map(|s| {
                // Project out dim 0, then rebuild in the smaller space.
                let projected = s.domain.project_out(0, 1);
                let mut domain = Set::empty(&target);
                for c in projected.conjuncts() {
                    domain.union_with(&drop_first_var(c, &target));
                }
                NestStatement {
                    name: s.name.clone(),
                    domain,
                    args: s
                        .args
                        .iter()
                        .map(|a| drop_first_var_expr(a, &target))
                        .collect(),
                }
            })
            .collect();
        LoopNest::with_parts(target, stmts)
    }
}

fn rename_space(space: &Space, names: &[String]) -> Space {
    let pr: Vec<&str> = space.param_names().iter().map(String::as_str).collect();
    let vr: Vec<&str> = names.iter().map(String::as_str).collect();
    Space::new(&pr, &vr)
}

fn unique_name(space: &Space, base: &str) -> String {
    let mut name = base.to_owned();
    let mut k = 0;
    while space.var_index(&name).is_some() || space.param_index(&name).is_some() {
        k += 1;
        name = format!("{base}{k}");
    }
    name
}

/// Rebuilds a conjunct over `target` (= source minus leading variable),
/// assuming the leading variable no longer occurs.
fn drop_first_var(c: &omega::Conjunct, target: &Space) -> Set {
    debug_assert!(!c.uses_var(0), "projected variable still used");
    let mut out = omega::Conjunct::universe(target);
    for k in c.local_free_constraints() {
        let e = drop_first_var_expr(k.expr(), target);
        out.add_constraint(&match k.kind() {
            omega::ConstraintKind::Eq => e.eq0(),
            omega::ConstraintKind::Geq => e.geq0(),
        });
    }
    for (expr, m) in c.congruences() {
        out.add_congruence(&drop_first_var_expr(&expr, target), 0, m);
    }
    out.to_set()
}

fn drop_first_var_expr(e: &LinExpr, target: &Space) -> LinExpr {
    let src = e.space();
    let np = src.n_params();
    let raw = e.raw_coeffs();
    debug_assert_eq!(raw[1 + np], 0, "dropped variable still referenced");
    let mut out = vec![0i64; 1 + target.n_named()];
    out[0] = raw[0];
    out[1..1 + np].copy_from_slice(&raw[1..1 + np]);
    for v in 1..src.n_vars() {
        out[1 + np + v - 1] = raw[1 + np + v];
    }
    LinExpr::from_raw(target, &out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nest(domain: &str) -> LoopNest {
        let d = Set::parse(domain).unwrap();
        let mut n = LoopNest::new(d.space().clone());
        n.add("s0", d);
        n
    }

    /// The multiset of original-coordinate instances must be preserved by
    /// every reordering transformation.
    fn same_instances(a: &LoopNest, b: &LoopNest, params: &[i64], lo: i64, hi: i64) {
        for s in 0..a.len().min(1) {
            let mut ia = a.instances(s, params, lo, hi);
            ia.sort();
            // b may have split s into multiple statements: gather all.
            let mut ib: Vec<Vec<i64>> = Vec::new();
            for t in 0..b.len() {
                ib.extend(b.instances(t, params, lo, hi));
            }
            ib.sort();
            assert_eq!(ia, ib);
        }
    }

    #[test]
    fn permute_interchanges() {
        let n = nest("[n] -> { [i,j] : 0 <= i < n && 0 <= j < i }");
        let p = n.permute(&[1, 0]);
        assert_eq!(p.space().var_name(0), "j");
        // Point (i=3, j=1) becomes (j=1, i=3).
        assert!(p.statements()[0].domain.contains(&[5], &[1, 3]));
        assert!(!p.statements()[0].domain.contains(&[5], &[3, 1]));
        // args map back to original coordinates.
        assert_eq!(p.statements()[0].args[0].to_string(), "i");
        same_instances(&n, &p, &[5], -1, 6);
    }

    #[test]
    fn shift_translates_domain_and_args() {
        let n = nest("{ [i] : 0 <= i <= 3 }");
        let delta = LinExpr::constant(n.space(), 10);
        let s = n.shift(0, 0, &delta);
        assert!(s.statements()[0].domain.contains(&[], &[10]));
        assert!(!s.statements()[0].domain.contains(&[], &[0]));
        // Instance coordinates unchanged.
        same_instances(&n, &s, &[], -1, 20);
    }

    #[test]
    fn skew_by_outer() {
        let n = nest("[n] -> { [i,j] : 0 <= i < n && 0 <= j < n }");
        let s = n.skew(1, 0, 1); // j' = j + i
        assert!(s.statements()[0].domain.contains(&[3], &[2, 2]));
        assert!(!s.statements()[0].domain.contains(&[3], &[2, 1]));
        same_instances(&n, &s, &[3], -1, 8);
    }

    #[test]
    fn strip_mine_boxes() {
        let n = nest("{ [i] : 0 <= i <= 9 }");
        let t = n.strip_mine(0, 4);
        assert_eq!(t.space().n_vars(), 2);
        assert!(t.statements()[0].domain.contains(&[], &[0, 3]));
        assert!(t.statements()[0].domain.contains(&[], &[2, 9]));
        assert!(!t.statements()[0].domain.contains(&[], &[1, 3]));
        same_instances(&n, &t, &[], -1, 11);
    }

    #[test]
    fn tile_two_dims() {
        let n = nest("{ [i,j] : 0 <= i <= 7 && 0 <= j <= 7 }");
        let t = n.tile(0, &[4, 4]);
        assert_eq!(t.space().n_vars(), 4);
        // (ti, tj, i, j): point i=5, j=2 sits in tile (1, 0).
        assert!(t.statements()[0].domain.contains(&[], &[1, 0, 5, 2]));
        assert!(!t.statements()[0].domain.contains(&[], &[0, 0, 5, 2]));
        same_instances(&n, &t, &[], -1, 9);
    }

    #[test]
    fn unroll_creates_pinned_copies() {
        let n = nest("{ [i] : 0 <= i <= 6 }");
        let u = n.unroll(0, 2);
        assert_eq!(u.len(), 2);
        same_instances(&n, &u, &[], -1, 8);
    }

    #[test]
    fn unroll_and_jam_sinks_residue() {
        let n = nest("[n] -> { [i,j] : 0 <= i < n && 0 <= j < n }");
        let u = n.unroll_and_jam(0, 2);
        assert_eq!(u.len(), 2);
        // dims: (it, j, i) with i pinned to 2·it + r.
        assert_eq!(u.space().n_vars(), 3);
        same_instances(&n, &u, &[4], -1, 6);
    }

    #[test]
    fn split_and_peel() {
        let n = nest("{ [i] : 0 <= i <= 9 }");
        let c = (LinExpr::constant(n.space(), 0) - LinExpr::var(n.space(), 0)).geq0(); // i <= 0
        let s = n.peel(0, &c);
        assert_eq!(s.len(), 2);
        assert!(s.statements()[0].name.ends_with("_a"));
        same_instances(&n, &s, &[], -1, 11);
    }

    #[test]
    fn distribute_then_fuse_roundtrip() {
        let d = Set::parse("{ [i] : 0 <= i <= 4 }").unwrap();
        let mut n = LoopNest::new(d.space().clone());
        n.add("s0", d.clone());
        n.add("s1", d);
        let dist = n.distribute(&[0, 1]);
        assert_eq!(dist.space().n_vars(), 2);
        assert!(dist.statements()[0].domain.contains(&[], &[0, 2]));
        assert!(dist.statements()[1].domain.contains(&[], &[1, 2]));
        assert!(!dist.statements()[1].domain.contains(&[], &[0, 2]));
        let fused = dist.fuse_leading();
        assert_eq!(fused.space().n_vars(), 1);
        assert!(fused.statements()[0].domain.contains(&[], &[2]));
        assert!(fused.statements()[1].domain.contains(&[], &[2]));
    }
}
