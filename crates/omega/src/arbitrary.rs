//! Seeded random generation of iteration-space building blocks for the
//! differential-testing harness (`crates/difftest`).
//!
//! Everything here is **deterministic**: a [`Rng`] is a SplitMix64 stream
//! fully determined by its seed, so any case the fuzzer reports is
//! reproducible from the seed alone. The constraint builders are biased
//! toward the shapes §2.2 of the paper exercises — parameterized bounds,
//! strides (existential congruences), index-set splits, and unions — while
//! maintaining one hard invariant the downstream oracle depends on:
//!
//! > every generated conjunct gives **every set variable an explicit lower
//! > and upper bound** whose magnitude (after substituting the largest
//! > parameter value the harness uses) stays within [`BOX_BOUND`].
//!
//! Extra constraints beyond the bounding box are always inequalities or
//! equalities between in-box quantities, so they can only *tighten* the
//! set. The harness therefore enumerates ground truth over the fixed box
//! `[-BOX_BOUND, BOX_BOUND]^d` without risking silently-missed points.

use crate::conjunct::Conjunct;
use crate::linexpr::{Constraint, LinExpr};
use crate::set::Set;
use crate::space::Space;

/// Magnitude bound on any coordinate of any point of a generated set (see
/// module docs). Enumerating `[-BOX_BOUND, BOX_BOUND]^dims` is guaranteed
/// to cover every generated (or shrunk) domain.
pub const BOX_BOUND: i64 = 20;

/// Largest value the harness may bind a parameter to (generation keeps
/// `param + slack` within [`BOX_BOUND`] under this assumption).
pub const MAX_PARAM: i64 = 8;

/// A SplitMix64 pseudo-random stream: tiny, fast, and fully deterministic
/// from the seed — exactly what a reproducible fuzzer needs. (Same
/// finalizer as Vigna's reference implementation.)
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A stream seeded with `seed` (distinct seeds give unrelated streams).
    pub fn new(seed: u64) -> Rng {
        Rng {
            // Pre-mix the seed so adjacent seeds start far apart; the
            // increment is the SplitMix64 golden-gamma constant.
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let span = (hi - lo) as u64 + 1;
        lo + (self.next_u64() % span) as i64
    }

    /// True with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }

    /// Picks an index by cumulative weights (e.g. `&[40, 40, 20]`).
    pub fn weighted(&mut self, weights: &[u64]) -> usize {
        let total: u64 = weights.iter().sum();
        let mut x = self.next_u64() % total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

/// One congruence `expr ≡ rem (mod modulus)` — the structured form of a
/// stride constraint, kept separate from affine [`Constraint`]s so the
/// shrinker can drop or weaken strides independently.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Congruence {
    /// Left-hand side (a variable, or a difference of two variables).
    pub expr: LinExpr,
    /// Residue in `0..modulus`.
    pub rem: i64,
    /// Modulus (`> 0`).
    pub modulus: i64,
}

/// A conjunct kept in structured form: plain affine constraints plus
/// congruences. This is what the fuzzer generates and what the shrinker
/// mutates; [`ArbConjunct::to_conjunct`] lowers it to a solver
/// [`Conjunct`].
#[derive(Clone, Debug)]
pub struct ArbConjunct {
    /// Affine constraints (bounds, cross-variable inequalities, splits).
    pub constraints: Vec<Constraint>,
    /// Stride constraints.
    pub congruences: Vec<Congruence>,
}

impl ArbConjunct {
    /// Lowers to a solver conjunct over `space`.
    pub fn to_conjunct(&self, space: &Space) -> Conjunct {
        let mut c = Conjunct::universe(space);
        for k in &self.constraints {
            c.add_constraint(k);
        }
        for g in &self.congruences {
            c.add_congruence(&g.expr, g.rem, g.modulus);
        }
        c
    }

    /// Total constraint count (affine + congruences) — the size metric the
    /// shrinker minimizes.
    pub fn len(&self) -> usize {
        self.constraints.len() + self.congruences.len()
    }

    /// True when the conjunct carries no constraints at all.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty() && self.congruences.is_empty()
    }
}

/// A statement domain in structured form: a union of [`ArbConjunct`]s.
#[derive(Clone, Debug)]
pub struct ArbSet {
    /// The union's members (index-set splits / unions of §2.2).
    pub conjuncts: Vec<ArbConjunct>,
}

impl ArbSet {
    /// Lowers to a solver [`Set`] over `space`.
    pub fn to_set(&self, space: &Space) -> Set {
        let mut s = Set::empty(space);
        for c in &self.conjuncts {
            s.push_conjunct(c.to_conjunct(space));
        }
        s
    }

    /// Total constraint count across the union.
    pub fn len(&self) -> usize {
        self.conjuncts.iter().map(ArbConjunct::len).sum()
    }

    /// True when no conjunct remains.
    pub fn is_empty(&self) -> bool {
        self.conjuncts.is_empty()
    }
}

/// Distribution knobs for [`arb_set`]. The defaults encode the §2.2 bias:
/// mostly small dimensionalities, frequent strides and parameterized
/// bounds, occasional unions and index-set splits.
#[derive(Clone, Copy, Debug)]
pub struct ArbConfig {
    /// Probability (in percent) that a bound uses a parameter when one is
    /// available.
    pub param_bound_pct: u64,
    /// Probability (in percent) of attaching a stride congruence to a
    /// conjunct.
    pub stride_pct: u64,
    /// Probability (in percent) of an index-set-split equality.
    pub split_pct: u64,
    /// Cumulative weights for 1, 2, 3 conjuncts in a union.
    pub union_weights: [u64; 3],
    /// Maximum extra (tightening) cross-variable inequalities.
    pub max_cross: usize,
}

impl Default for ArbConfig {
    fn default() -> Self {
        ArbConfig {
            param_bound_pct: 45,
            stride_pct: 35,
            split_pct: 15,
            union_weights: [70, 25, 5],
            max_cross: 2,
        }
    }
}

/// Lower+upper bound pair for variable `v`: constants, or a parameter with
/// small slack. The invariant is that under any parameter binding in
/// `0..=MAX_PARAM` both bounds lie within `BOX_BOUND - 4`, leaving room
/// for one split-equality translation (|offset| ≤ 3) before the box is hit.
fn bound_pair(rng: &mut Rng, space: &Space, v: usize) -> (Constraint, Constraint) {
    let var = LinExpr::var(space, v);
    let lo = rng.range(-4, 3);
    // Lower bound: v >= lo (constant; parameters appear in upper bounds,
    // the common loop idiom `lo <= i <= n + c`).
    let lower = var.clone().geq(LinExpr::constant(space, lo));
    let upper = if space.n_params() > 0 && rng.chance(45, 100) {
        // v <= p + c with c in -2..=3: magnitude ≤ MAX_PARAM + 3.
        let p = rng.range(0, space.n_params() as i64 - 1) as usize;
        let c = rng.range(-2, 3);
        var.leq(LinExpr::param(space, p) + c)
    } else {
        // Constant upper bound, placed relative to lo so roughly one case
        // in six is empty (empty pieces are a shape worth scanning too).
        let hi = rng.range(lo - 2, lo + 11);
        var.leq(LinExpr::constant(space, hi))
    };
    (lower, upper)
}

/// A random tightening inequality over one or two variables, e.g. the
/// triangular `t2 <= t1` or a skewed `2·t1 - t2 >= -3`.
fn cross_constraint(rng: &mut Rng, space: &Space) -> Constraint {
    let nv = space.n_vars();
    let a = rng.range(0, nv as i64 - 1) as usize;
    let mut e = LinExpr::var(space, a) * rng.range(1, 2);
    if nv > 1 && rng.chance(70, 100) {
        let mut b = rng.range(0, nv as i64 - 1) as usize;
        if b == a {
            b = (b + 1) % nv;
        }
        e = e + LinExpr::var(space, b) * rng.range(-2, 2);
    }
    let c = rng.range(-6, 6);
    if rng.chance(1, 2) {
        e.geq(LinExpr::constant(space, c))
    } else {
        e.leq(LinExpr::constant(space, c))
    }
}

/// An index-set-split equality: `v = c` or `v = w + c` with small `c`.
fn split_equality(rng: &mut Rng, space: &Space) -> Constraint {
    let nv = space.n_vars();
    let a = rng.range(0, nv as i64 - 1) as usize;
    let va = LinExpr::var(space, a);
    if nv > 1 && rng.chance(60, 100) {
        let mut b = rng.range(0, nv as i64 - 1) as usize;
        if b == a {
            b = (b + 1) % nv;
        }
        let c = rng.range(-3, 3);
        va.eq(LinExpr::var(space, b) + c)
    } else {
        let c = rng.range(-3, 8);
        va.eq(LinExpr::constant(space, c))
    }
}

/// A stride congruence: `v ≡ r (mod m)`, or the two-variable
/// `v - w ≡ r (mod m)` of Figure 8(a).
fn stride(rng: &mut Rng, space: &Space) -> Congruence {
    let nv = space.n_vars();
    let m = [2i64, 2, 3, 4][rng.range(0, 3) as usize];
    let a = rng.range(0, nv as i64 - 1) as usize;
    let mut expr = LinExpr::var(space, a);
    if nv > 1 && rng.chance(30, 100) {
        let mut b = rng.range(0, nv as i64 - 1) as usize;
        if b == a {
            b = (b + 1) % nv;
        }
        expr = expr - LinExpr::var(space, b);
    }
    Congruence {
        expr,
        rem: rng.range(0, m - 1),
        modulus: m,
    }
}

/// One random conjunct over `space`: a full bounding box for every
/// variable plus optional tightening constraints, a split, and strides.
pub fn arb_conjunct(rng: &mut Rng, space: &Space, cfg: &ArbConfig) -> ArbConjunct {
    let mut out = ArbConjunct {
        constraints: Vec::new(),
        congruences: Vec::new(),
    };
    for v in 0..space.n_vars() {
        let (lo, hi) = bound_pair(rng, space, v);
        out.constraints.push(lo);
        out.constraints.push(hi);
    }
    let n_cross = rng.range(0, cfg.max_cross as i64) as usize;
    for _ in 0..n_cross {
        out.constraints.push(cross_constraint(rng, space));
    }
    if rng.chance(cfg.split_pct, 100) {
        out.constraints.push(split_equality(rng, space));
    }
    if rng.chance(cfg.stride_pct, 100) {
        out.congruences.push(stride(rng, space));
        // Occasionally a second stride (the mod-4 even/odd split of
        // Figure 8(d) composes two congruences over one space).
        if rng.chance(20, 100) {
            out.congruences.push(stride(rng, space));
        }
    }
    out
}

/// One random statement domain: a union of conjuncts per
/// [`ArbConfig::union_weights`].
pub fn arb_set(rng: &mut Rng, space: &Space, cfg: &ArbConfig) -> ArbSet {
    let n = rng.weighted(&cfg.union_weights) + 1;
    ArbSet {
        conjuncts: (0..n).map(|_| arb_conjunct(rng, space, cfg)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_spreads() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut c = Rng::new(43);
        assert_ne!(xs, (0..64).map(|_| c.next_u64()).collect::<Vec<_>>());
        // range stays in range and hits both ends eventually
        let mut r = Rng::new(7);
        let vals: Vec<i64> = (0..400).map(|_| r.range(-3, 3)).collect();
        assert!(vals.iter().all(|v| (-3..=3).contains(v)));
        assert!(vals.contains(&-3) && vals.contains(&3));
    }

    #[test]
    fn weighted_covers_all_buckets() {
        let mut r = Rng::new(1);
        let mut seen = [false; 3];
        for _ in 0..500 {
            seen[r.weighted(&[70, 25, 5])] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn generated_sets_stay_inside_the_box() {
        let cfg = ArbConfig::default();
        for seed in 0..200 {
            let mut rng = Rng::new(seed);
            let space = Space::new(&["n"], &["t1", "t2"]);
            let s = arb_set(&mut rng, &space, &cfg).to_set(&space);
            let pts = s.enumerate(
                &[MAX_PARAM],
                &[-BOX_BOUND - 4, -BOX_BOUND - 4],
                &[BOX_BOUND + 4, BOX_BOUND + 4],
            );
            for p in pts {
                assert!(
                    p.iter().all(|x| x.abs() <= BOX_BOUND),
                    "seed {seed}: point {p:?} escapes the box in {}",
                    s.to_input_syntax()
                );
            }
        }
    }

    #[test]
    fn structured_form_round_trips_membership() {
        let cfg = ArbConfig::default();
        let space = Space::new(&["n"], &["t1"]);
        let mut rng = Rng::new(11);
        for _ in 0..50 {
            let arb = arb_set(&mut rng, &space, &cfg);
            let direct = arb.to_set(&space);
            let reparsed = Set::parse(&direct.to_input_syntax()).unwrap();
            for x in -BOX_BOUND..=BOX_BOUND {
                assert_eq!(
                    direct.contains(&[5], &[x]),
                    reparsed.contains(&[5], &[x]),
                    "x={x} in {}",
                    direct.to_input_syntax()
                );
            }
        }
    }
}
