//! Tiers 0 and 1 of the satisfiability pipeline — cheap, sound filters that
//! answer the easy majority of queries before the exact Omega test runs.
//!
//! Polyhedra scanning issues the same *shape* of query thousands of times:
//! "is `ctx ∧ ¬row` empty?" (an implication test from gist / hull / subset
//! checks). Most of these are decided by looking at the rows syntactically
//! (tier 0) or by propagating per-variable intervals to a fixpoint (tier 1);
//! only the residue needs Fourier–Motzkin with dark shadows and splinters.
//!
//! Soundness contract: a tier may answer [`Verdict::Unknown`] freely, but a
//! `Sat` / `Unsat` answer must be *exact* — the caller treats it as final and
//! never consults the Omega test.

use crate::conjunct::Row;
use crate::linexpr::ConstraintKind;
use std::collections::HashMap;

/// Three-valued answer of a fast satisfiability tier.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Verdict {
    /// The system certainly has an integer point.
    Sat,
    /// The system certainly has no integer point.
    Unsat,
    /// This tier cannot tell; fall through to the next one.
    Unknown,
}

/// Bound magnitudes beyond this are treated as unbounded: they cannot
/// influence a verdict on the i64-coefficient systems this crate builds, and
/// capping them keeps all interval arithmetic comfortably inside `i128`.
const BOUND_CAP: i128 = 1 << 96;

/// Propagation rounds before tier 1 gives up. Real queries reach a fixpoint
/// in a handful of rounds; the cap bounds pathological ping-ponging chains.
const MAX_ROUNDS: usize = 16;

/// Tier 0: purely syntactic contradiction detection on normalized rows.
///
/// Every row `w·x + c ≥ 0` (or `= 0`) is read as a bound on the *term*
/// `t = v·x`, where `v` is `w` with its sign canonicalized (first non-zero
/// coefficient positive). Collecting the tightest lower and upper bound per
/// distinct term catches, in one pass:
///
/// - negated pairs `w·x + c₁ ≥ 0` and `-w·x + c₂ ≥ 0` with `c₁ + c₂ < 0`;
/// - equalities pinning the same term to two different values;
/// - an equality outside the interval the inequalities allow;
/// - single-variable bound contradictions (`x ≥ 5` with `x ≤ 3`).
///
/// Rows must already be normalized (gcd 1 on the variable columns), which
/// makes the interval-emptiness test exact: a gcd-1 term assumes every
/// integer value, so `lo > hi` is the only way the bounds can clash.
///
/// Typical scanning queries have a dozen rows, where an allocation-free
/// pairwise scan beats building a hash map; large systems fall back to the
/// hashed single pass.
pub(crate) fn tier0(rows: &[Row]) -> Verdict {
    tier0_without(rows, None)
}

/// [`tier0`] on `rows` without `rows[skip]`, when given.
pub(crate) fn tier0_without(rows: &[Row], skip: Option<usize>) -> Verdict {
    let kept = |from: usize| {
        rows.iter()
            .enumerate()
            .skip(from)
            .filter(move |&(k, _)| Some(k) != skip)
            .map(|(_, r)| r)
    };
    if rows.len() > PAIRWISE_LIMIT {
        return tier0_hashed(kept(0));
    }
    for (i, a) in rows.iter().enumerate() {
        if Some(i) != skip && clashes(a, kept(i + 1)) {
            return Verdict::Unsat;
        }
    }
    Verdict::Unknown
}

const PAIRWISE_LIMIT: usize = 24;

/// Signed bounds `(lo, hi)` a row places on its canonical-sign term.
fn term_bounds(r: &Row, sign: i64) -> (i128, i128) {
    let c = r.c[0] as i128;
    match (r.kind, sign) {
        (ConstraintKind::Eq, _) => {
            let v = -(sign as i128) * c;
            (v, v)
        }
        (ConstraintKind::Geq, 1) => (-c, BOUND_CAP),
        (ConstraintKind::Geq, _) => (-BOUND_CAP, c),
    }
}

/// Sign that canonicalizes a row's variable coefficients, or `None` for a
/// constant row.
fn term_sign(r: &Row) -> Option<i64> {
    match r.c[1..].iter().find(|&&x| x != 0) {
        Some(&x) if x < 0 => Some(-1),
        Some(_) => Some(1),
        None => None,
    }
}

/// Do two rows constrain the same term (up to sign canonicalization)?
fn same_term(a: &Row, sa: i64, b: &Row, sb: i64) -> bool {
    if sa == sb {
        a.c[1..] == b.c[1..]
    } else {
        a.c.len() == b.c.len() && a.c[1..].iter().zip(&b.c[1..]).all(|(&x, &y)| x == -y)
    }
}

/// Tier 0 restricted to the term of `row`: do its bounds clash with those
/// of the rows of `rows` other than `rows[skip]` on the same term? With
/// `row = rows[skip]` this equals [`tier0`] on `rows` whenever the other
/// rows are clean under tier 0, because every other term's rows are then
/// a subset of a clean system. O(n) instead of tier 0's O(n²) pairwise
/// scan.
pub(crate) fn tier0_against(row: &Row, rows: &[Row], skip: usize) -> Verdict {
    if clashes(row, rows[..skip].iter().chain(&rows[skip + 1..])) {
        return Verdict::Unsat;
    }
    Verdict::Unknown
}

/// Does `a`'s bound, intersected with the bounds of the `others` on the
/// same term, leave an empty interval? Constant rows have no term.
fn clashes<'r>(a: &Row, others: impl IntoIterator<Item = &'r Row>) -> bool {
    let Some(sa) = term_sign(a) else {
        return false;
    };
    let (mut lo, mut hi) = term_bounds(a, sa);
    for b in others {
        let Some(sb) = term_sign(b) else { continue };
        if !same_term(a, sa, b, sb) {
            continue;
        }
        let (bl, bh) = term_bounds(b, sb);
        lo = lo.max(bl);
        hi = hi.min(bh);
        if lo > hi {
            return true;
        }
    }
    false
}

fn tier0_hashed<'r>(rows: impl Iterator<Item = &'r Row>) -> Verdict {
    let mut bounds: HashMap<Vec<i64>, (i128, i128)> = HashMap::new();
    let mut flipped: Vec<i64> = Vec::new();
    for r in rows {
        let Some(sign) = term_sign(r) else {
            continue; // a constant row bounds no term
        };
        let w = &r.c[1..];
        let key: &[i64] = if sign == 1 {
            w
        } else {
            flipped.clear();
            flipped.extend(w.iter().map(|&x| -x));
            &flipped
        };
        // w·x + c ≥ 0  ⇒  sign · t ≥ -c : a lower bound on the canonical
        // term t when sign = +1, an upper bound when sign = -1. Equalities
        // bound both sides.
        let (lo, hi) = term_bounds(r, sign);
        if !bounds.contains_key(key) {
            // Own the key only on first sight of the term.
            bounds.insert(key.to_vec(), (-BOUND_CAP, BOUND_CAP));
        }
        let entry = bounds.get_mut(key).expect("just inserted");
        entry.0 = entry.0.max(lo);
        entry.1 = entry.1.min(hi);
        if entry.0 > entry.1 {
            return Verdict::Unsat;
        }
    }
    Verdict::Unknown
}

/// Tier 1: interval (bounds-consistency) propagation, a cycle certificate
/// and a witness probe.
///
/// Maintains a per-variable integer interval, repeatedly tightening each
/// variable against every row under the current intervals of the *other*
/// variables. An empty interval proves `Unsat` (interval reasoning is a
/// relaxation, so emptiness is exact). Each bound remembers the row that
/// set it; a bound that tightens in a third round is ratcheting around a
/// cycle of rows, which [`cycle_certificate`] tries to refute in one step
/// instead of sixteen rounds. Satisfiability cannot be concluded
/// from non-empty intervals alone, so tier 1 additionally evaluates a few
/// candidate points inside the box; any point satisfying every row proves
/// `Sat` outright (all variables are existential).
pub(crate) fn tier1(rows: &[Row], ncols: usize) -> Verdict {
    if ncols <= STACK_COLS {
        let mut lo = [None; STACK_COLS];
        let mut hi = [None; STACK_COLS];
        let mut nz = [0; STACK_COLS];
        let mut why = [Why::NONE; 2 * STACK_COLS];
        let mut bx = Intervals {
            lo: &mut lo[..ncols],
            hi: &mut hi[..ncols],
            why: &mut why[..2 * ncols],
        };
        tier1_in(rows, &mut bx, &mut nz[..ncols])
    } else {
        let (mut lo, mut hi) = (vec![None; ncols], vec![None; ncols]);
        let mut why = vec![Why::NONE; 2 * ncols];
        let mut bx = Intervals {
            lo: &mut lo,
            hi: &mut hi,
            why: &mut why,
        };
        tier1_in(rows, &mut bx, &mut vec![0; ncols])
    }
}

/// Systems up to this many columns keep tier 1's intervals, witness
/// points and scratch on the stack.
const STACK_COLS: usize = 16;

/// Tier 1's box: per-column intervals (all unbounded on entry) and, per
/// bound, why it holds. Bound `2j` is column `j`'s lower bound, `2j + 1`
/// its upper bound.
struct Intervals<'a> {
    lo: &'a mut [Option<i128>],
    hi: &'a mut [Option<i128>],
    why: &'a mut [Why],
}

/// The row that last set a bound, the sign it was read under (`-1` for an
/// equality read as `-row ≥ 0`), the round it last changed in (plus one;
/// 0 = never) and how many rounds changed it.
#[derive(Clone, Copy)]
struct Why {
    row: u32,
    sign: i8,
    round: u8,
    rounds: u8,
}

impl Why {
    const NONE: Why = Why {
        row: u32::MAX,
        sign: 1,
        round: 0,
        rounds: 0,
    };
}

/// Tier 1 over a fresh box and a scratch buffer for a row's nonzero
/// columns, `ncols` long.
fn tier1_in(rows: &[Row], bx: &mut Intervals<'_>, nz: &mut [usize]) -> Verdict {
    for round in 0..MAX_ROUNDS {
        let mut changed = false;
        for (i, r) in rows.iter().enumerate() {
            let n = nonzero_columns(r, nz);
            // A row over one variable derives the same bound every round:
            // once applied in the first round it never changes anything.
            if round > 0 && n == 1 {
                continue;
            }
            let mut ratchet = None;
            match tighten(r, i, round, &nz[..n], bx, &mut ratchet) {
                Tighten::Contradiction => return Verdict::Unsat,
                Tighten::Changed => changed = true,
                Tighten::Fixed => {}
            }
            if ratchet.is_some_and(|b| cycle_certificate(rows, b, bx)) {
                return Verdict::Unsat;
            }
        }
        if !changed {
            break;
        }
    }
    if witness(rows, bx.lo, bx.hi) {
        return Verdict::Sat;
    }
    Verdict::Unknown
}

/// Writes the variable columns `r` mentions into `nz`, in increasing
/// order, and returns how many there are.
fn nonzero_columns(r: &Row, nz: &mut [usize]) -> usize {
    let mut n = 0;
    for (j, &a) in r.c.iter().enumerate().skip(1) {
        if a != 0 {
            nz[n] = j;
            n += 1;
        }
    }
    n
}

enum Tighten {
    Changed,
    Fixed,
    Contradiction,
}

/// One bounds-consistency step: for every variable in `r` (row `ri`, its
/// nonzero columns are `nz`), derive the bound implied by the extremal
/// values the remaining terms can take. The first bound to tighten in its
/// third round is noted in `ratchet`.
fn tighten(
    r: &Row,
    ri: usize,
    round: usize,
    nz: &[usize],
    bx: &mut Intervals<'_>,
    ratchet: &mut Option<usize>,
) -> Tighten {
    let mut changed = false;
    for &j in nz {
        let a = r.c[j] as i128;
        // w·x + c ≥ 0  ⇒  a·xⱼ ≥ -c - max(Σ_{k≠j} aₖ·xₖ); for equalities the
        // mirrored bound via the minimum of the rest also holds (the row
        // read as -w·x - c ≥ 0).
        if let Some(rest_max) = rest_extreme(r, j, nz, bx, true) {
            let rhs = -(r.c[0] as i128) - rest_max;
            let new = if a > 0 {
                Bound::Lower(div_ceil(rhs, a))
            } else {
                Bound::Upper(div_floor(-rhs, -a))
            };
            match bx.apply(j, new, (ri, 1), round, ratchet) {
                Applied::Contradiction => return Tighten::Contradiction,
                Applied::Changed => changed = true,
                Applied::Fixed => {}
            }
        }
        if r.kind == ConstraintKind::Eq {
            if let Some(rest_min) = rest_extreme(r, j, nz, bx, false) {
                let rhs = -(r.c[0] as i128) - rest_min;
                let new = if a > 0 {
                    Bound::Upper(div_floor(rhs, a))
                } else {
                    Bound::Lower(div_ceil(-rhs, -a))
                };
                match bx.apply(j, new, (ri, -1), round, ratchet) {
                    Applied::Contradiction => return Tighten::Contradiction,
                    Applied::Changed => changed = true,
                    Applied::Fixed => {}
                }
            }
        }
    }
    if changed {
        Tighten::Changed
    } else {
        Tighten::Fixed
    }
}

enum Bound {
    Lower(i128),
    Upper(i128),
}

enum Applied {
    Changed,
    Fixed,
    Contradiction,
}

impl Intervals<'_> {
    /// Tightens column `j` to `b` when that is tighter, recording `why`
    /// (row index and sign) as the bound's reason. A magnitude past the
    /// cap is treated as unbounded.
    fn apply(
        &mut self,
        j: usize,
        b: Bound,
        why: (usize, i8),
        round: usize,
        ratchet: &mut Option<usize>,
    ) -> Applied {
        let (id, slot, v) = match b {
            Bound::Lower(v) => (2 * j, &mut self.lo[j], v),
            Bound::Upper(v) => (2 * j + 1, &mut self.hi[j], v),
        };
        let tighter = match *slot {
            _ if v.abs() >= BOUND_CAP => false,
            Some(old) if id % 2 == 0 => v > old,
            Some(old) => v < old,
            None => true,
        };
        if !tighter {
            return Applied::Fixed;
        }
        *slot = Some(v);
        let w = &mut self.why[id];
        if usize::from(w.round) != round + 1 {
            // Propagating from a partial box often tightens a bound in a
            // second round; a third means a cycle keeps feeding it back.
            // Counting rounds, not changes, makes this fire once per bound.
            w.rounds += 1;
            if w.rounds == 3 && ratchet.is_none() {
                *ratchet = Some(id);
            }
        }
        w.row = why.0 as u32;
        w.sign = why.1;
        w.round = round as u8 + 1;
        match (self.lo[j], self.hi[j]) {
            (Some(l), Some(h)) if l > h => Applied::Contradiction,
            _ => Applied::Changed,
        }
    }
}

/// Extremal value of `Σ_{k≠j} aₖ·xₖ` over the nonzero columns `nz` under
/// the current intervals — the maximum when `want_max`, otherwise the
/// minimum. `None` when some needed bound is missing.
fn rest_extreme(
    r: &Row,
    j: usize,
    nz: &[usize],
    bx: &Intervals<'_>,
    want_max: bool,
) -> Option<i128> {
    let mut acc: i128 = 0;
    for &k in nz {
        if k == j {
            continue;
        }
        let a = r.c[k];
        let pick_hi = (a > 0) == want_max;
        let v = if pick_hi { bx.hi[k]? } else { bx.lo[k]? };
        acc = acc.checked_add((a as i128).checked_mul(v)?)?;
    }
    Some(acc)
}

/// The cycle certificate: refutes the system from `start`, a bound that is
/// ratcheting (it has now tightened in three rounds).
///
/// Each bound's reason row derived it from the bounds of the row's other
/// columns. Following, at every step, the most recently changed of those
/// bounds walks the reasons back until a bound repeats: the rows `e₀ … e_{k-1}`
/// on that cycle (each read under its recorded sign, so an equality may
/// enter negated) derive bound `i` on column `vᵢ` from the bound on
/// `vᵢ₊₁`. Multipliers `λᵢ = Π_{m<i} |eₘ[vₘ₊₁]| · Π_{m>i} |eₘ[vₘ]|` are
/// positive and cancel every cycle column except `v₀`; the sum `Σ λᵢ·eᵢ ≥ 0`
/// holds at every integer point of the system. Every box bound is implied
/// by the rows too, so when the sum's maximum over the box is negative the
/// system is empty (a Farkas certificate) — exact, whatever the rows'
/// order. Overflow, an unbounded term or a dead end means no certificate.
fn cycle_certificate(rows: &[Row], start: usize, bx: &Intervals<'_>) -> bool {
    let nb = bx.why.len();
    let found = if nb <= 2 * STACK_COLS {
        let mut path = [0; 2 * STACK_COLS];
        let mut lambda = [0; 2 * STACK_COLS];
        let mut sum = [0; STACK_COLS];
        certify(
            rows,
            start,
            bx,
            &mut path[..nb],
            &mut lambda[..nb],
            &mut sum[..nb / 2],
        )
    } else {
        certify(
            rows,
            start,
            bx,
            &mut vec![0; nb],
            &mut vec![0; nb],
            &mut vec![0; nb / 2],
        )
    };
    found == Some(true)
}

/// [`cycle_certificate`] over scratch buffers: the walked bounds and their
/// multipliers (one entry per bound) and the summed row (one per column).
/// `Some(true)` is a refutation; `None` means overflow, an unbounded term
/// or a reason chain that ends before it closes.
fn certify(
    rows: &[Row],
    start: usize,
    bx: &Intervals<'_>,
    path: &mut [usize],
    lambda: &mut [i128],
    sum: &mut [i128],
) -> Option<bool> {
    // Effective coefficient of bound `b`'s reason row on column `col`.
    let coeff = |b: usize, col: usize| {
        let w = bx.why[b];
        i128::from(rows[w.row as usize].c[col]) * i128::from(w.sign)
    };
    let mut len = 0;
    let mut b = start;
    let from = loop {
        if let Some(p) = path[..len].iter().position(|&q| q == b) {
            break p;
        }
        path[len] = b;
        len += 1;
        let w = bx.why[b];
        let r = rows.get(w.row as usize)?;
        let mut next: Option<(usize, u8)> = None;
        for (k, &a) in r.c.iter().enumerate().skip(1) {
            if k == b / 2 || a == 0 {
                continue;
            }
            // The bound the derivation read: the upper bound of a column
            // with a positive effective coefficient, else the lower one.
            let used = 2 * k + usize::from((a > 0) == (w.sign > 0));
            let when = bx.why[used].round;
            if next.is_none_or(|(_, t)| when > t) {
                next = Some((used, when));
            }
        }
        b = next?.0;
    };
    let cycle = &path[from..len];
    let k = cycle.len();
    let lambda = &mut lambda[..k];
    lambda.fill(1);
    for (i, &bi) in cycle.iter().enumerate() {
        let alpha = coeff(bi, bi / 2).abs();
        let beta = coeff(bi, cycle[(i + 1) % k] / 2).abs();
        for (m, l) in lambda.iter_mut().enumerate() {
            if m > i {
                *l = l.checked_mul(beta)?;
            } else if m < i {
                *l = l.checked_mul(alpha)?;
            }
        }
    }
    let g = lambda.iter().fold(0, |g, &l| gcd_i128(g, l));
    sum.fill(0);
    for (&bi, l) in cycle.iter().zip(lambda.iter()) {
        let l = l / g;
        for (col, s) in sum.iter_mut().enumerate() {
            *s = s.checked_add(l.checked_mul(coeff(bi, col))?)?;
        }
    }
    let mut max = sum[0];
    for (j, &s) in sum.iter().enumerate().skip(1) {
        if s != 0 {
            let v = if s > 0 { bx.hi[j]? } else { bx.lo[j]? };
            max = max.checked_add(s.checked_mul(v)?)?;
        }
    }
    Some(max < 0)
}

fn gcd_i128(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a.abs()
}

/// Tries a few concrete points inside the interval box; any one of them
/// satisfying every row proves the system satisfiable.
fn witness(rows: &[Row], lo: &[Option<i128>], hi: &[Option<i128>]) -> bool {
    let ncols = lo.len();
    let mut stack = [0; 2 * STACK_COLS];
    let mut heap = Vec::new();
    let points: &mut [i128] = if ncols <= STACK_COLS {
        &mut stack[..2 * ncols]
    } else {
        heap.resize(2 * ncols, 0);
        &mut heap
    };
    let (clamped, corner) = points.split_at_mut(ncols);
    for (j, (&l, &h)) in lo.iter().zip(hi).enumerate() {
        // Candidate 1: zero clamped into each interval — the common case
        // where the polyhedron contains (a translate of) the origin.
        clamped[j] = 0.clamp(l.unwrap_or(i128::MIN), h.unwrap_or(i128::MAX));
        // Candidate 2: each variable at its lower bound (upper when only
        // an upper bound exists) — catches boxes far from the origin.
        corner[j] = l.or(h).unwrap_or(0);
    }
    satisfies_all(rows, clamped) || (corner != clamped && satisfies_all(rows, corner))
}

fn satisfies_all(rows: &[Row], point: &[i128]) -> bool {
    rows.iter().all(|r| {
        let mut v = r.c[0] as i128;
        for (j, &a) in r.c.iter().enumerate().skip(1) {
            if a != 0 {
                v = match (a as i128)
                    .checked_mul(point[j])
                    .and_then(|t| v.checked_add(t))
                {
                    Some(v) => v,
                    None => return false,
                };
            }
        }
        match r.kind {
            ConstraintKind::Eq => v == 0,
            ConstraintKind::Geq => v >= 0,
        }
    })
}

fn div_floor(a: i128, b: i128) -> i128 {
    debug_assert!(b > 0);
    let q = a / b;
    if a % b != 0 && a < 0 {
        q - 1
    } else {
        q
    }
}

fn div_ceil(a: i128, b: i128) -> i128 {
    debug_assert!(b > 0);
    let q = a / b;
    if a % b != 0 && a > 0 {
        q + 1
    } else {
        q
    }
}

/// Differential property suite: on randomized systems, any `Sat`/`Unsat`
/// a tier returns must match the exact Omega test run with the tiers and
/// the cache bypassed. `Unknown` is always acceptable — the tiers are
/// filters, not decision procedures — but a definite answer may never
/// disagree with the oracle.
#[cfg(test)]
mod differential {
    use super::*;
    use proptest::prelude::*;

    /// Random small systems over three variables. Coefficients are kept
    /// small so the exact solve is fast at 512 cases per property; the
    /// shapes still exercise negated pairs, equality pinning, transitive
    /// chains, and integer-only-infeasible rows.
    fn rows_strategy() -> impl Strategy<Value = Vec<Row>> {
        let row = (
            prop::bool::weighted(0.7),
            -9i64..=9,
            -4i64..=4,
            -4i64..=4,
            -4i64..=4,
        );
        prop::collection::vec(row, 1..8).prop_map(|raw| {
            let mut rows = Vec::new();
            for (geq, c0, a, b, c) in raw {
                let kind = if geq {
                    ConstraintKind::Geq
                } else {
                    ConstraintKind::Eq
                };
                let mut r = Row::new(kind, vec![c0, a, b, c]);
                // The tiers' precondition: normalized, non-constant rows
                // (the pipeline filters constants before the tiers run).
                if r.normalize() && !r.is_constant() {
                    rows.push(r);
                }
            }
            rows
        })
    }

    /// Random ratchet cycles over 2–5 of five variables: row `i` links
    /// `x_{i+1}` to `xᵢ` with unit or ±2 coefficients and a small offset
    /// (so the cycle's sum is as often negative as not), sometimes negated
    /// or an equality, plus an anchor bound on `x₀` and, half the time, a
    /// far upper bound. The three-variable random rows above rarely form a
    /// cycle, which is what tier 1's certificate refutes.
    fn cycles_strategy() -> impl Strategy<Value = Vec<Row>> {
        let edge = (
            1i64..=2,
            1i64..=2,
            -3i64..=3,
            prop::bool::weighted(0.2),
            prop::bool::weighted(0.15),
        );
        let anchor = (
            prop::bool::weighted(0.7),
            -5i64..=5,
            prop::bool::weighted(0.5),
        );
        (2usize..=5, prop::collection::vec(edge, 5..6), anchor).prop_map(
            |(n, edges, (lower, at, far))| {
                let mut rows = Vec::new();
                for (i, &(p, q, off, flip, eq)) in edges.iter().take(n).enumerate() {
                    let mut c = vec![0; 6];
                    c[0] = off;
                    c[1 + (i + 1) % n] += p;
                    c[1 + i] -= q;
                    if flip {
                        c.iter_mut().for_each(|x| *x = -*x);
                    }
                    let kind = if eq {
                        ConstraintKind::Eq
                    } else {
                        ConstraintKind::Geq
                    };
                    rows.push(Row::new(kind, c));
                }
                let mut c = vec![0; 6];
                (c[0], c[1]) = if lower { (-at, 1) } else { (at, -1) };
                rows.push(Row::new(ConstraintKind::Geq, c));
                if far {
                    let mut c = vec![0; 6];
                    (c[0], c[n]) = (50, -1);
                    rows.push(Row::new(ConstraintKind::Geq, c));
                }
                rows.into_iter()
                    .filter_map(|mut r| (r.normalize() && !r.is_constant()).then_some(r))
                    .collect()
            },
        )
    }

    /// A definite tier-1 answer must agree with the exact solver.
    fn check_tier1(rows: &[Row], n_vars: usize) -> Result<(), TestCaseError> {
        if rows.is_empty() {
            return Ok(());
        }
        let exact = crate::sat::exact_satisfiable(rows, n_vars);
        match tier1(rows, 1 + n_vars) {
            Verdict::Sat => {
                prop_assert!(exact, "tier1 said Sat on an unsatisfiable system: {rows:?}")
            }
            Verdict::Unsat => {
                prop_assert!(!exact, "tier1 said Unsat on a satisfiable system: {rows:?}")
            }
            Verdict::Unknown => {}
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn tier0_never_contradicts_exact(rows in rows_strategy()) {
            if rows.is_empty() {
                return Ok(());
            }
            if tier0(&rows) == Verdict::Unsat {
                prop_assert!(
                    !crate::sat::exact_satisfiable(&rows, 3),
                    "tier0 said Unsat on a satisfiable system: {rows:?}"
                );
            }
        }

        #[test]
        fn tier1_never_contradicts_exact(rows in rows_strategy(), cycle in cycles_strategy()) {
            check_tier1(&rows, 3)?;
            check_tier1(&cycle, 5)?;
        }

        #[test]
        fn full_pipeline_matches_exact(rows in rows_strategy()) {
            if rows.is_empty() {
                return Ok(());
            }
            // End-to-end: tiers + canonicalization + cache must be
            // invisible — the public entry point agrees with the oracle.
            prop_assert_eq!(
                crate::sat::rows_satisfiable(&rows, 3),
                crate::sat::exact_satisfiable(&rows, 3),
                "pipeline verdict diverged on {:?}", rows
            );
        }

        #[test]
        fn starved_pipeline_is_a_sound_overapproximation(rows in rows_strategy()) {
            if rows.is_empty() {
                return Ok(());
            }
            // Under an artificially tiny budget the pipeline may degrade,
            // but only ever toward "satisfiable": a `false` answer must
            // still agree with the unstarved oracle, and degraded verdicts
            // must never poison the cache for a later full-budget query.
            let tiny = crate::limits::Limits {
                budget: 4,
                max_depth: 2,
                row_cap: 6,
                ..crate::limits::Limits::default()
            };
            let (starved, _cert) = crate::limits::with_limits(tiny, || {
                crate::sat::rows_satisfiable(&rows, 3)
            });
            let exact = crate::sat::exact_satisfiable(&rows, 3);
            if !starved {
                prop_assert!(
                    !exact,
                    "starved pipeline said Unsat on a satisfiable system: {rows:?}"
                );
            }
            // A fresh full-budget query is exact even right after the
            // starved one (degraded answers are never cached).
            prop_assert_eq!(
                crate::sat::rows_satisfiable(&rows, 3),
                exact,
                "full-budget verdict corrupted by earlier starved query on {:?}", rows
            );
        }
    }

    /// `c ≥ b+1, b ≥ a, a ≥ c+1` with `b ≥ 0` ratchets for every round
    /// under interval propagation alone; the cycle's sum `-2 ≥ 0` refutes it.
    #[test]
    fn tier1_refutes_a_ratchet_cycle() {
        let rows: Vec<Row> = [[-1, 0, -1, 1], [0, -1, 1, 0], [-1, 1, 0, -1], [0, 0, 1, 0]]
            .iter()
            .map(|c| Row::new(ConstraintKind::Geq, c.to_vec()))
            .collect();
        assert_eq!(tier1(&rows, 4), Verdict::Unsat);
        assert!(!crate::sat::exact_satisfiable(&rows, 3));
    }

    /// Near-cycles that have integer points must never be refuted: a
    /// zero-gain cycle (`c ≥ b ≥ a ≥ c`), and a converging ratchet
    /// (`2x ≥ y + 10, y ≥ x`, `x ≥ 10` at the fixpoint) whose sum `x ≥ 10`
    /// is only refutable without its far upper bound `x ≤ 1000`.
    #[test]
    fn tier1_keeps_satisfiable_near_cycles() {
        let geq = |c: &[i64]| Row::new(ConstraintKind::Geq, c.to_vec());
        let zero_gain = [
            geq(&[0, 0, -1, 1]),
            geq(&[0, -1, 1, 0]),
            geq(&[0, 1, 0, -1]),
            geq(&[0, 0, 1, 0]),
        ];
        let converging = [
            geq(&[-10, 2, -1, 0]),
            geq(&[0, -1, 1, 0]),
            geq(&[0, 0, 1, 0]),
            geq(&[1000, -1, 0, 0]),
        ];
        for rows in [&zero_gain[..], &converging[..], &converging[..3]] {
            assert!(crate::sat::exact_satisfiable(rows, 3));
            assert_ne!(tier1(rows, 4), Verdict::Unsat, "{rows:?}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geq(c: &[i64]) -> Row {
        Row::new(ConstraintKind::Geq, c.to_vec())
    }
    fn eq(c: &[i64]) -> Row {
        Row::new(ConstraintKind::Eq, c.to_vec())
    }

    #[test]
    fn tier0_negated_pair() {
        // x + y ≥ 5 and x + y ≤ 3
        let rows = [geq(&[-5, 1, 1]), geq(&[3, -1, -1])];
        assert_eq!(tier0(&rows), Verdict::Unsat);
        // compatible versions stay unknown
        let rows = [geq(&[-5, 1, 1]), geq(&[7, -1, -1])];
        assert_eq!(tier0(&rows), Verdict::Unknown);
    }

    #[test]
    fn tier0_conflicting_equalities() {
        let rows = [eq(&[-3, 1, 1]), eq(&[-4, 1, 1])];
        assert_eq!(tier0(&rows), Verdict::Unsat);
        let rows = [eq(&[-3, 1, 1]), eq(&[3, -1, -1])];
        assert_eq!(tier0(&rows), Verdict::Unknown); // same constraint, flipped
    }

    #[test]
    fn tier0_equality_outside_inequality_window() {
        // x = 10 but x ≤ 7
        let rows = [eq(&[-10, 1]), geq(&[7, -1])];
        assert_eq!(tier0(&rows), Verdict::Unsat);
    }

    #[test]
    fn tier0_single_variable_bounds() {
        let rows = [geq(&[-5, 1]), geq(&[3, -1])]; // 5 ≤ x ≤ 3
        assert_eq!(tier0(&rows), Verdict::Unsat);
        let rows = [geq(&[-3, 1]), geq(&[5, -1])]; // 3 ≤ x ≤ 5
        assert_eq!(tier0(&rows), Verdict::Unknown);
    }

    #[test]
    fn tier1_transitive_bounds() {
        // x ≥ 10, y ≥ x, 5 ≥ y: needs one propagation step.
        let rows = [geq(&[-10, 1, 0]), geq(&[0, -1, 1]), geq(&[5, 0, -1])];
        assert_eq!(tier1(&rows, 3), Verdict::Unsat);
    }

    #[test]
    fn tier1_witness_origin() {
        // -5 ≤ x ≤ 5, -5 ≤ y ≤ 5, x + y ≥ -3: origin satisfies everything.
        let rows = [
            geq(&[5, 1, 0]),
            geq(&[5, -1, 0]),
            geq(&[5, 0, 1]),
            geq(&[5, 0, -1]),
            geq(&[3, 1, 1]),
        ];
        assert_eq!(tier1(&rows, 3), Verdict::Sat);
    }

    #[test]
    fn tier1_witness_corner() {
        // 100 ≤ x ≤ 100, y = x: corner probe finds (100, 100).
        let rows = [geq(&[-100, 1, 0]), geq(&[100, -1, 0]), eq(&[0, 1, -1])];
        assert_eq!(tier1(&rows, 3), Verdict::Sat);
    }

    #[test]
    fn tier1_unknown_on_gaps() {
        // 2x = 1: the integer floor/ceil tightening sees single-variable
        // divisibility (x ≥ ⌈1/2⌉ = 1, x ≤ ⌊1/2⌋ = 0).
        let rows = [eq(&[-1, 2])];
        assert_eq!(tier1(&rows, 2), Verdict::Unsat);
        // Pugh's dark-shadow example must not be mis-answered Sat.
        let rows = [
            geq(&[-27, 11, 13]),
            geq(&[45, -11, -13]),
            geq(&[10, 7, -9]),
            geq(&[4, -7, 9]),
        ];
        assert_ne!(tier1(&rows, 3), Verdict::Sat);
    }

    #[test]
    fn tier1_equality_propagation() {
        // x = 7, y = x, y ≥ 9 → unsat through two equalities.
        let rows = [eq(&[-7, 1, 0]), eq(&[0, 1, -1]), geq(&[-9, 0, 1])];
        assert_eq!(tier1(&rows, 3), Verdict::Unsat);
    }
}
