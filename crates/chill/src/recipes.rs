//! Transformation recipes reproducing the five kernels of the paper's
//! Table 1 (gemv, qr, swim, gemm, lu). Each recipe builds the original
//! loop nest and applies the optimization strategy the paper describes,
//! yielding the set of iteration spaces that is then fed *identically* to
//! CodeGen+ and the CLooG baseline.

use crate::nest::LoopNest;
use omega::{LinExpr, Set, Space};

/// A prepared kernel: the transformed nest plus an evaluation binding for
/// its parameters.
#[derive(Clone, Debug)]
pub struct Kernel {
    /// Kernel name (Table 1 row).
    pub name: &'static str,
    /// The transformed loop nest.
    pub nest: LoopNest,
    /// Parameter values used when executing generated code.
    pub params: Vec<i64>,
}

/// A recipe: builds its kernel at a problem size.
type Recipe = fn(i64) -> Kernel;

/// The Table 1 kernels by name, in the paper's row order: the one table
/// [`all`] and [`by_name`] walk.
const TABLE1: [(&str, Recipe); 5] = [
    ("gemv", gemv),
    ("qr", qr),
    ("swim", swim),
    ("gemm", gemm),
    ("lu", lu),
];

/// All five Table 1 kernels at the given problem size.
pub fn all(n: i64) -> Vec<Kernel> {
    TABLE1.iter().map(|(_, build)| build(n)).collect()
}

/// The Table 1 kernel called `name` at the given problem size, built
/// alone; `None` when no Table 1 kernel has that name.
pub fn by_name(name: &str, n: i64) -> Option<Kernel> {
    TABLE1
        .iter()
        .find(|(k, _)| *k == name)
        .map(|(_, build)| build(n))
}

/// `gemv` — matrix-vector multiply `y[i] += A[i][j]·x[j]`, optimized with
/// **unroll-and-jam** of the `i` loop by 2 (Table 1 row 1). The residue
/// pinning introduces the modulo constraints for which CLooG emits extra
/// if-conditions.
pub fn gemv(n: i64) -> Kernel {
    let d = Set::parse("[n] -> { [i,j] : 0 <= i < n && 0 <= j < n }").unwrap();
    let mut nest = LoopNest::new(d.space().clone());
    nest.add("s0", d);
    let nest = nest.unroll_and_jam(0, 2);
    Kernel {
        name: "gemv",
        nest,
        params: vec![n],
    }
}

/// `qr` — Householder-style factorization skeleton: a diagonal norm
/// statement and a trailing-column update, **peeled** at the first update
/// column, **shifted** for alignment and **fused** into one nest
/// (Table 1 row 2).
pub fn qr(n: i64) -> Kernel {
    let space = Space::new(&["n"], &["k", "j"]);
    let mut nest = LoopNest::new(space.clone());
    // s0: column norm / reflector at the diagonal.
    nest.add(
        "s0",
        Set::parse("[n] -> { [k,j] : 0 <= k < n && j = k }").unwrap(),
    );
    // s1: update of trailing columns, fused right after the reflector.
    nest.add(
        "s1",
        Set::parse("[n] -> { [k,j] : 0 <= k < n && k + 1 <= j < n }").unwrap(),
    );
    // Peel the first update column (j = k + 1): boundary handling.
    let j = LinExpr::var(&space, 1);
    let k = LinExpr::var(&space, 0);
    let first_col = j.leq(k + 1);
    let nest = nest.peel(1, &first_col);
    // Peel the last reflector (k = n - 1 has no trailing columns).
    let k = LinExpr::var(nest.space(), 0);
    let n_expr = LinExpr::param(nest.space(), 0);
    let last = k.geq(n_expr - 1);
    let nest = nest.split_stmt(0, &last);
    Kernel {
        name: "qr",
        nest,
        params: vec![n],
    }
}

/// `swim` — the shallow-water stencil: three statement groups over the 2-D
/// grid, **peeled and shifted by different amounts to enable fusion**
/// (Table 1 row 3; optimization strategy of Girbal et al.). The misaligned
/// boundaries create the clean-up regions responsible for CLooG's 4.7×
/// larger code.
pub fn swim(n: i64) -> Kernel {
    let space = Space::new(&["n"], &["i", "j"]);
    let mut nest = LoopNest::new(space.clone());
    let grid = Set::parse("[n] -> { [i,j] : 1 <= i <= n && 1 <= j <= n }").unwrap();
    // Three sweeps (CALC1/CALC2/CALC3), three statements each.
    for g in 0..3 {
        for s in 0..3 {
            nest.add(format!("c{g}s{s}"), grid.clone());
        }
    }
    // Shift sweep g by (g, g) to pipeline the fused computation.
    let mut nest = nest.clone();
    for g in 1..3i64 {
        for s in 0..3 {
            let idx = (g as usize) * 3 + s;
            let d = LinExpr::constant(nest.space(), g);
            nest = nest.shift(idx, 0, &d);
            let d = LinExpr::constant(nest.space(), g);
            nest = nest.shift(idx, 1, &d);
        }
    }
    // Peel boundary rows/columns of the first statement of each sweep
    // (periodic boundary updates of the real benchmark).
    for g in 0..3usize {
        // first row of the sweep: i <= g+1
        let idx = nest
            .statements()
            .iter()
            .position(|s| s.name == format!("c{g}s0"))
            .unwrap();
        let i = LinExpr::var(nest.space(), 0);
        let bound = LinExpr::constant(nest.space(), g as i64 + 1);
        nest = nest.peel(idx, &i.leq(bound));
        // last column of the sweep: j >= n + g
        let idx = nest
            .statements()
            .iter()
            .position(|s| s.name == format!("c{g}s2"))
            .unwrap();
        let j = LinExpr::var(nest.space(), 1);
        let bound = LinExpr::param(nest.space(), 0) + (g as i64);
        nest = nest.split_stmt(idx, &j.geq(bound));
    }
    Kernel {
        name: "swim",
        nest,
        params: vec![n],
    }
}

/// `gemm` — matrix-matrix multiply `C[i][j] += A[i][k]·B[k][j]`, with
/// **two-level tiling** of `i`/`j`, strip-mined `k`, and **unrolling** of
/// the intra-tile `j` loop (Table 1 row 4). The tile sizes do not divide
/// the (symbolic) problem size, producing the full set of clean-up spaces.
pub fn gemm(n: i64) -> Kernel {
    let d = Set::parse("[n] -> { [i,j,k] : 0 <= i < n && 0 <= j < n && 0 <= k < n }").unwrap();
    let mut nest = LoopNest::new(d.space().clone());
    nest.add("s0", d);
    // Tile (i, j) by 8×8 → (it, jt, i, j, k).
    let nest = nest.tile(0, &[8, 8]);
    // Strip-mine k by 4 and hoist the k-tile after (it, jt):
    // dims (it, jt, i, j, kt, k) → (it, jt, kt, i, j, k).
    let nest = nest.strip_mine(4, 4);
    let nest = nest.permute(&[0, 1, 4, 2, 3, 5]);
    // Unroll the intra-tile j loop (now dim 4) by 4.
    let nest = nest.unroll(4, 4);
    Kernel {
        name: "gemm",
        nest,
        params: vec![n],
    }
}

/// `lu` — LU factorization: column scaling and trailing-submatrix update,
/// tiled and then **index-set split** into the mini-LU / triangular-solve /
/// matrix-multiply regions of highly tuned implementations (Table 1 row 5,
/// citing the recipe of Hall et al.). By far the most complex spaces.
pub fn lu(n: i64) -> Kernel {
    let t = 8i64; // tile size
    let space = Space::new(&["n"], &["k", "i", "j"]);
    let mut nest = LoopNest::new(space.clone());
    // s0: A[i][k] /= A[k][k]          for k < i < n  (pad j = k)
    nest.add(
        "s0",
        Set::parse("[n] -> { [k,i,j] : 0 <= k && k < i && i < n && j = k }").unwrap(),
    );
    // s1: A[i][j] -= A[i][k]·A[k][j]  for k < i, j < n
    nest.add(
        "s1",
        Set::parse("[n] -> { [k,i,j] : 0 <= k && k < i && i < n && k < j && j < n }").unwrap(),
    );
    // Tile i and j by t → (k, it, jt, i, j).
    let nest = nest.tile(1, &[t, t]);
    // Index-set split the update into the classic regions relative to the
    // pivot column k (mini-LU / row and column triangular solves / interior
    // matrix-multiply), then peel pipeline boundaries inside each region —
    // the recipe of highly tuned implementations the paper cites.
    let split_kt = |nest: &LoopNest, dim: usize| {
        let sp = nest.space().clone();
        let k = LinExpr::var(&sp, 0);
        let tv = LinExpr::var(&sp, dim);
        (k - tv * t).geq0() // tile · t <= k: the tile contains the pivot row
    };
    // Update: diagonal-i vs below.
    let c = split_kt(&nest, 1);
    let nest = nest.split_stmt(1, &c);
    // Diagonal-i piece splits on jt: mini-LU vs row solve.
    let c = split_kt(&nest, 2);
    let nest = nest.split_stmt(1, &c);
    // Below-diagonal remainder splits on jt: column solve vs interior mm.
    let idx = nest.len() - 1;
    let c = split_kt(&nest, 2);
    let nest = nest.split_stmt(idx, &c);
    // Software-pipelining prologue: peel the first intra-tile row of the
    // interior update.
    let idx = nest.len() - 1;
    let nest = {
        let sp = nest.space().clone();
        let i = LinExpr::var(&sp, 3);
        let it = LinExpr::var(&sp, 1);
        nest.split_stmt(idx, &(it * t - i).geq0())
    };
    // ... and its epilogue: peel the last intra-tile column of the
    // interior bulk.
    let idx = nest.len() - 1;
    let nest = {
        let sp = nest.space().clone();
        let j = LinExpr::var(&sp, 4);
        let jt = LinExpr::var(&sp, 2);
        nest.split_stmt(idx, &(j - jt * t - (t - 1)).geq0())
    };
    // Split the scaling statement at the diagonal tile and peel its first
    // tile row.
    let c = split_kt(&nest, 1);
    let nest = nest.split_stmt(0, &c);
    let nest = {
        let sp = nest.space().clone();
        let i = LinExpr::var(&sp, 3);
        let k = LinExpr::var(&sp, 0);
        nest.split_stmt(0, &(i - k - 1).leq(LinExpr::constant(&sp, 0)))
    };
    Kernel {
        name: "lu",
        nest,
        params: vec![n],
    }
}

/// `jacobi` — a 1-D time-iterated stencil `A[t][i] = f(A[t-1][i-1..i+1])`,
/// **skewed** (`i' = i + t`) so the inner loop carries no dependence, then
/// tiled along the time dimension. Exercises the wavefront transformation
/// the Table 1 kernels do not use. Not part of Table 1; provided as an
/// extra workload.
pub fn jacobi(n: i64) -> Kernel {
    let space = Space::new(&["n", "steps"], &["t", "i"]);
    let mut nest = LoopNest::new(space.clone());
    nest.add(
        "s0",
        Set::parse("[n,steps] -> { [t,i] : 0 <= t < steps && 1 <= i && i <= n }").unwrap(),
    );
    // Skew i by t: i' = i + t (legal wavefront for the 3-point stencil).
    let nest = nest.skew(1, 0, 1);
    // Strip-mine the time dimension (time tiling after skewing).
    let nest = nest.strip_mine(0, 4);
    Kernel {
        name: "jacobi",
        nest,
        params: vec![n, 6],
    }
}

/// `syrk` — symmetric rank-k update touching only the lower triangle
/// (`C[i][j] += A[i][k]·A[j][k]` for `j ≤ i`), tiled with triangular tile
/// interaction and the diagonal tiles split off (they need the `j ≤ i`
/// guard; interior tiles do not). Extra workload beyond Table 1.
pub fn syrk(n: i64) -> Kernel {
    let space = Space::new(&["n"], &["i", "j", "k"]);
    let mut nest = LoopNest::new(space.clone());
    nest.add(
        "s0",
        Set::parse("[n] -> { [i,j,k] : 0 <= i < n && 0 <= j && j <= i && 0 <= k < n }").unwrap(),
    );
    let t = 8i64;
    let nest = nest.tile(0, &[t, t]);
    // Split off the diagonal tiles (it == jt): only they need the j <= i
    // triangle test inside.
    let sp = nest.space().clone();
    let it = LinExpr::var(&sp, 0);
    let jt = LinExpr::var(&sp, 1);
    let nest = nest.split_stmt(0, &(it - jt).leq(LinExpr::constant(&sp, 0)));
    Kernel {
        name: "syrk",
        nest,
        params: vec![n],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every recipe must preserve the original kernel's instance set: the
    /// union of transformed statement instances (mapped through args back
    /// to original coordinates) equals the original domain's points.
    fn check_instances(kernel: &Kernel, original: &[(&str, Set)], lo: i64, hi: i64) {
        // Group transformed statements by original statement via name
        // prefix (recipes suffix with _a/_b/uK).
        for (base, dom) in original {
            let mut got: Vec<Vec<i64>> = Vec::new();
            for (s, st) in kernel.nest.statements().iter().enumerate() {
                if st.name.starts_with(base) {
                    got.extend(kernel.nest.instances(s, &kernel.params, lo, hi));
                }
            }
            got.sort();
            got.dedup();
            let nv = dom.space().n_vars();
            let mut expect = dom.enumerate(&kernel.params, &vec![lo; nv], &vec![hi; nv]);
            expect.sort();
            assert_eq!(
                got, expect,
                "instances differ for {base} in {}",
                kernel.name
            );
        }
    }

    #[test]
    fn gemv_preserves_instances() {
        let k = gemv(5);
        assert_eq!(k.nest.statements().len(), 2);
        check_instances(
            &k,
            &[(
                "s0",
                Set::parse("[n] -> { [i,j] : 0 <= i < n && 0 <= j < n }").unwrap(),
            )],
            -1,
            7,
        );
    }

    #[test]
    fn qr_preserves_instances() {
        let k = qr(5);
        assert!(k.nest.statements().len() >= 3);
        check_instances(
            &k,
            &[
                (
                    "s0",
                    Set::parse("[n] -> { [k,j] : 0 <= k < n && j = k }").unwrap(),
                ),
                (
                    "s1",
                    Set::parse("[n] -> { [k,j] : 0 <= k < n && k + 1 <= j < n }").unwrap(),
                ),
            ],
            -1,
            7,
        );
    }

    #[test]
    fn swim_statements_shifted() {
        let k = swim(4);
        assert!(k.nest.statements().len() >= 9);
        // Every sweep statement maps back to the original grid.
        let grid = Set::parse("[n] -> { [i,j] : 1 <= i <= n && 1 <= j <= n }").unwrap();
        for g in 0..3 {
            for st in 0..3 {
                let base = format!("c{g}s{st}");
                check_instances(&k, &[(&base, grid.clone())], -2, 9);
            }
        }
    }

    #[test]
    fn gemm_shape() {
        let k = gemm(12);
        // (it, jt, kt, i, jut, j, k): 7 scanning dims, 4 unrolled copies.
        assert_eq!(k.nest.space().n_vars(), 7);
        assert_eq!(k.nest.statements().len(), 4);
    }

    #[test]
    fn gemm_small_instances() {
        let k = gemm(5);
        check_instances(
            &k,
            &[(
                "s0",
                Set::parse("[n] -> { [i,j,k] : 0 <= i < n && 0 <= j < n && 0 <= k < n }").unwrap(),
            )],
            -1,
            6,
        );
    }

    #[test]
    fn lu_regions() {
        let k = lu(12);
        // Scaling split in two; update split in three.
        assert!(
            k.nest.statements().len() >= 5,
            "{}",
            k.nest.statements().len()
        );
        assert_eq!(k.nest.space().n_vars(), 5);
    }

    #[test]
    fn lu_small_instances() {
        let k = lu(6);
        check_instances(
            &k,
            &[
                (
                    "s0",
                    Set::parse("[n] -> { [k,i,j] : 0 <= k && k < i && i < n && j = k }").unwrap(),
                ),
                (
                    "s1",
                    Set::parse("[n] -> { [k,i,j] : 0 <= k && k < i && i < n && k < j && j < n }")
                        .unwrap(),
                ),
            ],
            -1,
            7,
        );
    }

    #[test]
    fn jacobi_preserves_instances() {
        let k = jacobi(6);
        check_instances(
            &k,
            &[(
                "s0",
                Set::parse("[n,steps] -> { [t,i] : 0 <= t < steps && 1 <= i && i <= n }").unwrap(),
            )],
            -2,
            14,
        );
    }

    #[test]
    fn syrk_preserves_instances() {
        let k = syrk(6);
        assert_eq!(k.nest.statements().len(), 2);
        check_instances(
            &k,
            &[(
                "s0",
                Set::parse("[n] -> { [i,j,k] : 0 <= i < n && 0 <= j && j <= i && 0 <= k < n }")
                    .unwrap(),
            )],
            -1,
            7,
        );
    }

    #[test]
    fn all_returns_five() {
        let ks = all(6);
        let names: Vec<&str> = ks.iter().map(|k| k.name).collect();
        assert_eq!(names, vec!["gemv", "qr", "swim", "gemm", "lu"]);
    }

    #[test]
    fn by_name_builds_the_matching_table1_kernel() {
        let n = 9;
        let shape = |k: &Kernel| {
            let domains: Vec<String> = k
                .nest
                .statements()
                .iter()
                .map(|s| format!("{} {}", s.name, s.domain))
                .collect();
            (k.name, k.params.clone(), domains)
        };
        let all = all(n);
        assert_eq!(all.len(), TABLE1.len());
        for ((name, _), k) in TABLE1.iter().zip(&all) {
            let one = by_name(name, n).unwrap_or_else(|| panic!("{name} not found"));
            assert_eq!(shape(&one), shape(k), "{name}");
        }
        assert!(by_name("nope", n).is_none());
    }
}
