//! Exact integer satisfiability of conjunctions of affine constraints — the
//! Omega test (Pugh, CACM 1992): equality elimination via the symmetric
//! modulo trick, integer-tightened Fourier–Motzkin elimination, the dark
//! shadow, and splintering when the dark shadow is inconclusive.
//!
//! All functions here operate on raw [`Row`]s whose columns are
//! `[const, x1, .., xn]` with every `xi` existentially quantified.

use crate::cache;
use crate::conjunct::Row;
use crate::faults;
use crate::limits::{self, Limits, OmegaError};
use crate::linexpr::ConstraintKind;
use crate::num;
use crate::stats::bump;
use crate::tier::{self, Verdict};

/// Exact test: does an integer assignment to the `n_vars` variable columns
/// satisfy all rows?
///
/// Queries run through a tiered pipeline (polyhedra scanning asks millions
/// of implication queries, most of them easy):
///
/// * **tier 0** — syntactic contradictions on the canonicalized rows
///   (negated constraint pairs, clashing equalities, single-variable bound
///   conflicts);
/// * **tier 1** — interval-propagation fixpoint: an empty interval proves
///   unsat, and a cheap witness probe inside the box proves sat;
/// * **tier 2** — the exact Omega test, memoized in a process-wide sharded
///   cache so results are shared across generations and threads.
///
/// Tiers 0 and 1 are exact when they answer; only `Unknown` falls through,
/// so the overall verdict always equals the plain Omega test's.
///
/// Tier 2 runs under the current [`crate::limits::Limits`] governor: when
/// a limit trips (budget, depth, row cap, deadline, or coefficient
/// overflow) the query degrades to the conservative "satisfiable", the
/// reason is noted in the scope's [`crate::limits::DegradeReasons`], and
/// the verdict is *not* cached — only exact verdicts (valid under any
/// limits) enter the process-wide memo cache.
pub(crate) fn rows_satisfiable(rows: &[Row], n_vars: usize) -> bool {
    // Fast path: rows coming from canonicalized conjuncts are already
    // normalized, so tier 0 and the cache probe can run on the borrowed
    // rows without cloning anything. Only a cache miss (or an unnormalized
    // row) pays for building the canonical system.
    //
    // The scan is fused: one walk over each row's coefficients checks for
    // constant rows (gcd over the variable columns stays 0), verifies
    // normality (gcd 1), and accumulates the cache fingerprint lanes — so
    // the warm path touches every coefficient exactly once before the
    // cache probe instead of three times (constant scan, gcd scan, hash).
    let mut sum = KeySum::EMPTY;
    let mut normal = true;
    for r in rows {
        debug_assert_eq!(r.c.len(), 1 + n_vars);
        let mut h = RowHash::new(r.kind);
        let mut it = r.c.iter();
        h.mix(*it.next().expect("row has a constant column"));
        let mut g = 0;
        for &x in it {
            if g != 1 {
                g = num::gcd(g, x);
            }
            h.mix(x);
        }
        if g == 0 {
            // All variable coefficients are zero: a constant row. Decided
            // here and excluded from the fingerprint (matching `cache_key`).
            if !r.constant_truth() {
                return false;
            }
            continue;
        }
        if g != 1 {
            normal = false;
            break;
        }
        sum.add(h.finish());
    }
    if normal {
        if sum.n == 0 {
            return true; // every row was a (true) constant
        }
        let key = sum.key();
        debug_assert_eq!(key, cache_key(rows));
        return satisfiable_with_key(rows, n_vars, key, tier::tier0);
    }
    let mut work: Vec<Row> = Vec::with_capacity(rows.len());
    for r in rows {
        let mut r = r.clone();
        if !r.normalize() {
            return false;
        }
        if r.is_constant() {
            if !r.constant_truth() {
                return false;
            }
            continue;
        }
        work.push(r);
    }
    if work.is_empty() {
        return true;
    }
    satisfiable_with_key(&work, n_vars, cache_key(&work), tier::tier0)
}

/// One base system asked "is it satisfiable with row `slot` swapped for
/// `row`?" once per row: the shape of gist's redundancy loop,
/// [`crate::gist::drop_self_redundant`] and the hull's candidate tests.
///
/// Asked through [`rows_satisfiable`], every such probe would re-hash all
/// rows and re-run tier 0's pairwise scan on a system that differs from
/// the previous one in a single row. The probe keeps what the swapped
/// systems share: each base row's fingerprint lane (the summand
/// [`cache_key`] adds) and their sum, and whether tier 0 finds the base
/// clean. A swap then costs O(cols) of key work, and on a clean base
/// tier 0 checks only the new row's term ([`tier::tier0_against`]) —
/// every other term's rows are a subset of the clean base's. Past that a
/// probe runs the same pipeline, with the same counters, spans and cache
/// entries, as [`rows_satisfiable`] on the swapped system. Like that
/// pipeline, a probe runs no tier 0 until a query misses the cache: the
/// base's cleanliness is learned at the first miss.
pub(crate) struct Probe {
    /// The base rows, normalized (a row normalization proves false is
    /// kept as given: it only ever makes a probe answer `false`).
    rows: Vec<Row>,
    /// What each base row contributes to a probe, by slot.
    lanes: Vec<Lane>,
    /// Sum of the base rows' fingerprint lanes.
    sum: KeySum,
    /// Base rows that normalization proves false.
    false_rows: usize,
    n_vars: usize,
    /// Does tier 0 answer `Unknown` on the base rows? `None` until a probe
    /// first misses the cache.
    clean: Option<bool>,
}

/// A row's part in a probe's verdict and fingerprint.
#[derive(Clone, Copy)]
enum Lane {
    /// A non-constant normalized row and its fingerprint lane.
    Term((u64, u64)),
    /// A constant row that holds: no effect on the verdict or the key.
    True,
    /// A row that normalization proves false: the system is unsat.
    False,
}

impl Lane {
    /// Normalizes `r` in place and classifies it.
    fn of(r: &mut Row) -> Lane {
        if !r.normalize() {
            Lane::False
        } else if r.is_constant() {
            Lane::True
        } else {
            Lane::Term(RowHash::lane(r))
        }
    }
}

impl Probe {
    /// A probe over `rows`, each with `1 + n_vars` columns.
    pub(crate) fn new(mut rows: Vec<Row>, n_vars: usize) -> Probe {
        let mut sum = KeySum::EMPTY;
        let mut false_rows = 0;
        let lanes: Vec<Lane> = rows
            .iter_mut()
            .map(|r| {
                debug_assert_eq!(r.c.len(), 1 + n_vars);
                let lane = Lane::of(r);
                match lane {
                    Lane::Term(l) => sum.add(l),
                    Lane::False => false_rows += 1,
                    Lane::True => {}
                }
                lane
            })
            .collect();
        Probe {
            rows,
            lanes,
            sum,
            false_rows,
            n_vars,
            clean: None,
        }
    }

    /// Number of base rows.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// Variable columns of every row.
    pub(crate) fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Is the base with row `slot` replaced by `row` satisfiable? Equal
    /// to [`rows_satisfiable`] on that system, with the same side effects;
    /// the base is unchanged afterwards.
    pub(crate) fn sat_swapped(&mut self, slot: usize, mut row: Row) -> bool {
        debug_assert_eq!(row.c.len(), 1 + self.n_vars);
        let lane = Lane::of(&mut row);
        let key = match self.swapped_key(slot, lane) {
            Ok(key) => key,
            Err(decided) => return decided,
        };
        let old_row = std::mem::replace(&mut self.rows[slot], row);
        debug_assert_eq!(key, cache_key(&self.rows));
        let clean = &mut self.clean;
        let sat = satisfiable_with_key(&self.rows, self.n_vars, key, |rows| {
            swapped_tier0(clean, rows, slot, &old_row)
        });
        self.rows[slot] = old_row;
        sat
    }

    /// The fingerprint of the base with row `slot` swapped for a row with
    /// `lane`, in O(1) — or the verdict, when a false row or nothing but
    /// true constants decide the swapped system before any tier.
    fn swapped_key(&self, slot: usize, lane: Lane) -> Result<(u64, u64), bool> {
        let old = self.lanes[slot];
        if self.false_rows + matches!(lane, Lane::False) as usize
            > matches!(old, Lane::False) as usize
        {
            return Err(false);
        }
        let mut sum = self.sum;
        if let Lane::Term(l) = old {
            sum.sub(l);
        }
        if let Lane::Term(l) = lane {
            sum.add(l);
        }
        if sum.n == 0 {
            return Err(true);
        }
        Ok(sum.key())
    }

    /// Drops row `slot` from the base (an implied row, once a probe has
    /// shown it redundant); later slots shift down by one.
    pub(crate) fn remove(&mut self, slot: usize) {
        self.rows.remove(slot);
        match self.lanes.remove(slot) {
            Lane::Term(l) => self.sum.sub(l),
            Lane::False => self.false_rows -= 1,
            Lane::True => {}
        }
        // A subset of a clean base is clean; an unclean one may have lost
        // the clashing row.
        if self.clean == Some(false) {
            self.clean = Some(tier::tier0(&self.rows) == Verdict::Unknown);
        }
    }
}

/// Tier 0 on `rows`, a probe's base with row `slot` swapped out for
/// `rows[slot]` (`old` is the base row), given whether the base is
/// `clean` — learned here, from the rows the two systems share, when not
/// yet known.
fn swapped_tier0(clean: &mut Option<bool>, rows: &[Row], slot: usize, old: &Row) -> Verdict {
    match *clean {
        Some(true) => {}
        Some(false) => return tier::tier0(rows),
        None => {
            // The base is clean iff the shared rows are and the row
            // swapped out does not clash with them. If the shared rows
            // clash, so does this system, which contains them.
            let shared = tier::tier0_without(rows, Some(slot)) == Verdict::Unknown;
            *clean = Some(shared && tier::tier0_against(old, rows, slot) == Verdict::Unknown);
            if !shared {
                return Verdict::Unsat;
            }
        }
    }
    tier::tier0_against(&rows[slot], rows, slot)
}

/// The tiered pipeline proper, entered with the system's fingerprint
/// already in hand. `rows` are normalized and may contain true constant
/// rows and duplicates, in any order. `tier0` is tier 0 on `rows`, or an
/// equivalent shortcut the caller can prove exact.
fn satisfiable_with_key(
    rows: &[Row],
    n_vars: usize,
    key: (u64, u64),
    tier0: impl FnOnce(&[Row]) -> Verdict,
) -> bool {
    let span = crate::span!(sat_query, rows = rows.len(), vars = n_vars);
    // The cache sits *before* tiers 0 and 1 and stores their verdicts too:
    // on the warm path (scanning re-asks the same queries constantly) a
    // repeat query costs one fingerprint + shard probe — cheaper than even
    // tier 0's pairwise scan.
    if let Some(hit) = cache::SAT.lookup(key) {
        bump!(cache_hits);
        span.attr("tier", "cache");
        span.attr("sat", hit);
        return hit;
    }
    bump!(cache_misses);
    if tier0(rows) == Verdict::Unsat {
        bump!(tier0_unsat);
        cache::SAT.insert(key, false);
        span.attr("tier", "tier0");
        span.attr("sat", false);
        return false;
    }
    // Tier 1 reads the borrowed rows: its definite answers are exact in
    // any row order, and constant rows and duplicates change nothing.
    let result = match tier::tier1(rows, 1 + n_vars) {
        Verdict::Unsat => {
            bump!(tier1_unsat);
            span.attr("tier", "tier1");
            span.attr("sat", false);
            false
        }
        Verdict::Sat => {
            bump!(tier1_sat);
            span.attr("tier", "tier1");
            span.attr("sat", true);
            true
        }
        Verdict::Unknown => {
            // Only tier 2 needs the canonical (sorted, deduplicated)
            // system. Determinism across cache states requires the
            // *solver input* to be a pure function of the fingerprinted
            // multiset — the solver's budget cutoff is order-sensitive
            // even though exact verdicts are not.
            let mut work: Vec<Row> = rows.iter().filter(|r| !r.is_constant()).cloned().collect();
            work.sort_by(|a, b| (a.kind as u8, &a.c).cmp(&(b.kind as u8, &b.c)));
            work.dedup();
            // Tier 2: the exact Omega test. The per-query call tree is a
            // *detached* trace root keyed by the cache fingerprint —
            // which phase happens to ask a cold query first depends on the
            // cache state, the query itself does not.
            let exact = crate::root_span!(sat_exact, rows = work.len(), vars = n_vars);
            exact.attr("key", format!("{:016x}{:016x}", key.0, key.1));
            let dump = crate::trace::current().filter(|c| c.wants_dumps());
            let dump_rows = dump.as_ref().map(|_| work.clone());
            faults::begin_query();
            let lim = limits::current();
            let mut budget = lim.budget;
            match solve(work, 0, &mut budget, &lim) {
                Ok(v) => {
                    exact.attr("sat", v);
                    if let Some(c) = &dump {
                        let text = crate::provenance::sat_dump_text(
                            dump_rows.as_deref().unwrap_or(&[]),
                            n_vars,
                            Some(v),
                        );
                        c.submit_dump("sat", text);
                    }
                    span.attr("tier", "tier2");
                    span.attr("sat", v);
                    v
                }
                Err(e) => {
                    // Degraded verdict: answer the conservative "sat",
                    // record why, and — critically — do NOT cache it. Exact
                    // verdicts are exact under any limits and always safe
                    // to share; a starved verdict must not be replayed to a
                    // later caller running with a fresh budget.
                    exact.attr("degraded", format!("{e}"));
                    if let Some(c) = &dump {
                        let text = crate::provenance::sat_dump_text(
                            dump_rows.as_deref().unwrap_or(&[]),
                            n_vars,
                            None,
                        );
                        c.submit_dump("sat", text);
                    }
                    limits::note(e);
                    bump!(sat_degraded);
                    span.attr("tier", "tier2");
                    span.attr("sat", true);
                    span.attr("degraded", true);
                    return true;
                }
            }
        }
    };
    cache::SAT.insert(key, result);
    result
}

/// Test-only reference oracle: the exact Omega test with the cache and the
/// fast tiers bypassed, for differential testing of the tiers themselves.
#[cfg(test)]
pub(crate) fn exact_satisfiable(rows: &[Row], n_vars: usize) -> bool {
    let mut work: Vec<Row> = Vec::with_capacity(rows.len());
    for r in rows {
        let mut r = r.clone();
        if !r.normalize() {
            return false;
        }
        if r.is_constant() {
            if !r.constant_truth() {
                return false;
            }
            continue;
        }
        work.push(r);
    }
    debug_assert!(work.iter().all(|r| r.c.len() == 1 + n_vars));
    work.sort_by(|a, b| (a.kind as u8, &a.c).cmp(&(b.kind as u8, &b.c)));
    work.dedup();
    let lim = Limits::default();
    let mut budget = lim.budget;
    solve(work, 0, &mut budget, &lim).unwrap_or(true)
}

/// A 128-bit fingerprint of the row system: a commutative (wrapping-sum)
/// combination of well-mixed per-row hashes, so logically identical
/// queries fingerprint identically *regardless of row order* and no sorted
/// copy is needed on the lookup path. Constant rows are skipped to keep
/// the key canonical. Collision odds are negligible at the cache's
/// capacity.
fn cache_key(rows: &[Row]) -> (u64, u64) {
    let mut sum = KeySum::EMPTY;
    for r in rows.iter().filter(|r| !r.is_constant()) {
        sum.add(RowHash::lane(r));
    }
    sum.key()
}

/// Running hash of one row's kind and coefficients; [`RowHash::finish`]
/// gives the row's lane, its summand in the fingerprint.
struct RowHash(u64, u64);

impl RowHash {
    #[inline]
    fn new(kind: ConstraintKind) -> RowHash {
        RowHash(
            0xcbf2_9ce4_8422_2325 ^ (kind as u64),
            0x517c_c1b7_2722_0a95 ^ (kind as u64).rotate_left(32),
        )
    }

    #[inline]
    fn mix(&mut self, x: i64) {
        self.0 = (self.0 ^ x as u64).wrapping_mul(0x100_0000_01b3);
        self.1 = (self.1.rotate_left(29) ^ (x as u64).wrapping_mul(0xff51_afd7_ed55_8ccd))
            .wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    }

    #[inline]
    fn finish(self) -> (u64, u64) {
        (splitmix(self.0), splitmix(self.1 ^ 0x94d0_49bb_1331_11eb))
    }

    /// The lane of a whole row.
    fn lane(r: &Row) -> (u64, u64) {
        let mut h = RowHash::new(r.kind);
        for &x in &r.c {
            h.mix(x);
        }
        h.finish()
    }
}

/// The order-free part of the fingerprint: a wrapping sum of row lanes
/// and their count, so a row can be taken out again.
#[derive(Clone, Copy)]
struct KeySum {
    s1: u64,
    s2: u64,
    n: u64,
}

impl KeySum {
    const EMPTY: KeySum = KeySum {
        s1: 0,
        s2: 0x9e37_79b9_7f4a_7c15,
        n: 0,
    };

    fn add(&mut self, (l1, l2): (u64, u64)) {
        self.s1 = self.s1.wrapping_add(l1);
        self.s2 = self.s2.wrapping_add(l2);
        self.n += 1;
    }

    fn sub(&mut self, (l1, l2): (u64, u64)) {
        self.s1 = self.s1.wrapping_sub(l1);
        self.s2 = self.s2.wrapping_sub(l2);
        self.n -= 1;
    }

    fn key(self) -> (u64, u64) {
        (
            splitmix(self.s1 ^ self.n),
            splitmix(self.s2.wrapping_add(self.n)),
        )
    }
}

/// Final avalanche (splitmix64), so structured coefficient patterns do not
/// collide under the commutative sum.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The exact Omega test under a [`Limits`] governor. Every limit trip and
/// every arithmetic overflow surfaces as a structured [`OmegaError`];
/// `satisfiable_with_key` catches it at the query boundary and degrades
/// to the conservative "satisfiable" — sound for every caller in this
/// crate (emptiness pruning keeps more pieces; implication checks keep
/// more constraints — the generated code is merely more conservative,
/// never wrong).
fn solve(
    mut rows: Vec<Row>,
    depth: usize,
    budget: &mut u64,
    lim: &Limits,
) -> Result<bool, OmegaError> {
    if depth >= lim.max_depth {
        return Err(OmegaError::DepthExceeded);
    }
    loop {
        lim.check_deadline()?;
        faults::tick()?;
        if rows.len() > lim.row_cap {
            return Err(OmegaError::RowCapExceeded);
        }
        if *budget < rows.len() as u64 {
            *budget = 0;
            return Err(OmegaError::BudgetExhausted);
        }
        *budget -= rows.len() as u64;
        match normalize_all(&mut rows) {
            Normalized::Contradiction => return Ok(false),
            Normalized::Ok => {}
        }
        if rows.is_empty() {
            return Ok(true);
        }
        // Step 1: eliminate an equality if one exists.
        if let Some(eq_idx) = rows.iter().position(|r| r.kind == ConstraintKind::Eq) {
            if !eliminate_equality(&mut rows, eq_idx)? {
                return Ok(false);
            }
            continue;
        }
        // Step 2: inequalities only.
        return fm_solve(rows, depth, budget, lim);
    }
}

enum Normalized {
    Ok,
    Contradiction,
}

fn normalize_all(rows: &mut Vec<Row>) -> Normalized {
    let mut i = 0;
    while i < rows.len() {
        if !rows[i].normalize() {
            return Normalized::Contradiction;
        }
        if rows[i].is_constant() {
            if !rows[i].constant_truth() {
                return Normalized::Contradiction;
            }
            rows.swap_remove(i);
        } else {
            i += 1;
        }
    }
    Normalized::Ok
}

/// Eliminates the equality at `eq_idx`. Returns `Ok(false)` on detected
/// unsatisfiability.
fn eliminate_equality(rows: &mut Vec<Row>, eq_idx: usize) -> Result<bool, OmegaError> {
    let eq = rows[eq_idx].clone();
    // Choose the variable with minimal |coefficient|.
    let mut best: Option<(usize, i64)> = None;
    for (j, &c) in eq.c.iter().enumerate().skip(1) {
        if c != 0 && best.is_none_or(|(_, b)| c.abs() < b.abs()) {
            best = Some((j, c));
        }
    }
    let (col, coeff) = match best {
        Some(b) => b,
        None => {
            // Constant equality; normalize_all should have caught it.
            return Ok(eq.constant_truth());
        }
    };
    if coeff.abs() == 1 {
        substitute_from_equality(rows, eq_idx, col)?;
        return Ok(true);
    }
    // Pugh's symmetric-modulo reduction: introduce a fresh variable sigma.
    let m = num::try_add(coeff.abs(), 1)?;
    for r in rows.iter_mut() {
        r.c.push(0);
    }
    let mut c: crate::coeffs::Coeffs = eq.c.iter().map(|&x| num::mod_hat(x, m)).collect();
    c.push(-m); // -m * sigma
    debug_assert_eq!(c[col].abs(), 1, "mod-hat must give unit coefficient");
    rows.push(Row::new(ConstraintKind::Eq, c));
    let new_idx = rows.len() - 1;
    substitute_from_equality(rows, new_idx, col)?;
    Ok(true)
}

/// Uses the equality row at `eq_idx` (which must have coefficient ±1 at
/// `col`) to substitute the variable out of every other row, then removes
/// the equality.
fn substitute_from_equality(
    rows: &mut Vec<Row>,
    eq_idx: usize,
    col: usize,
) -> Result<(), OmegaError> {
    let eq = rows.swap_remove(eq_idx);
    let a = eq.c[col];
    debug_assert_eq!(a.abs(), 1);
    // a*x + e = 0  =>  x = -e/a = -a*e   (since a = ±1)
    for r in rows.iter_mut() {
        let k = r.c[col];
        if k == 0 {
            continue;
        }
        r.c[col] = 0;
        for j in 0..r.c.len() {
            if j != col && eq.c[j] != 0 {
                r.c[j] = num::try_add(r.c[j], num::try_mul(k, num::try_mul(-a, eq.c[j])?)?)?;
            }
        }
    }
    Ok(())
}

/// Bounds on a variable within a pure-inequality system.
struct VarBounds {
    /// Rows `a·x + e ≥ 0` with `a > 0` (lower bounds), as (row index, a).
    lowers: Vec<(usize, i64)>,
    /// Rows `-b·x + e ≥ 0` with `b > 0` (upper bounds), as (row index, b).
    uppers: Vec<(usize, i64)>,
}

fn bounds_for(rows: &[Row], col: usize) -> VarBounds {
    let mut vb = VarBounds {
        lowers: Vec::new(),
        uppers: Vec::new(),
    };
    for (i, r) in rows.iter().enumerate() {
        let c = r.c[col];
        if c > 0 {
            vb.lowers.push((i, c));
        } else if c < 0 {
            vb.uppers.push((i, -c));
        }
    }
    vb
}

/// Solves a system of inequalities (no equalities) exactly.
fn fm_solve(
    mut rows: Vec<Row>,
    depth: usize,
    budget: &mut u64,
    lim: &Limits,
) -> Result<bool, OmegaError> {
    loop {
        lim.check_deadline()?;
        faults::tick()?;
        if rows.len() > lim.row_cap {
            return Err(OmegaError::RowCapExceeded);
        }
        if *budget < rows.len() as u64 {
            *budget = 0;
            return Err(OmegaError::BudgetExhausted);
        }
        *budget -= rows.len() as u64;
        match normalize_all(&mut rows) {
            Normalized::Contradiction => return Ok(false),
            Normalized::Ok => {}
        }
        if rows.is_empty() {
            return Ok(true);
        }
        let ncols = rows[0].c.len();
        // Find a used variable, preferring one whose elimination is exact.
        let mut candidate: Option<usize> = None;
        let mut exact: Option<usize> = None;
        let mut best_combo = usize::MAX;
        let mut dropped_unbounded = false;
        for col in 1..ncols {
            let vb = bounds_for(&rows, col);
            if vb.lowers.is_empty() && vb.uppers.is_empty() {
                continue;
            }
            if vb.lowers.is_empty() || vb.uppers.is_empty() {
                // Unbounded on one side: variable (and its rows) can go away.
                rows.retain(|r| r.c[col] == 0);
                dropped_unbounded = true;
                break;
            }
            let unit_lower = vb.lowers.iter().all(|&(_, a)| a == 1);
            let unit_upper = vb.uppers.iter().all(|&(_, b)| b == 1);
            let combos = vb.lowers.len() * vb.uppers.len();
            if unit_lower || unit_upper {
                if exact.is_none() || combos < best_combo {
                    exact = Some(col);
                    best_combo = combos;
                }
            } else if exact.is_none() && combos < best_combo {
                candidate = Some(col);
                best_combo = combos;
            }
        }
        if dropped_unbounded {
            continue;
        }
        if let Some(col) = exact {
            rows = fm_eliminate(&rows, col, 0)?;
            continue;
        }
        let col = match candidate {
            Some(c) => c,
            None => return Ok(true), // no variables used; rows were constant
        };
        // Inexact variable: dark shadow first (a satisfiable dark shadow
        // proves satisfiability), then the real shadow, then splinters.
        let dark = fm_eliminate(&rows, col, 1)?;
        if solve(dark, depth + 1, budget, lim)? {
            return Ok(true); // dark shadow guarantees an integer point
        }
        let real = fm_eliminate(&rows, col, 0)?;
        if !solve(real, depth + 1, budget, lim)? {
            return Ok(false); // even the rational relaxation is empty
        }
        // Splinter: if a solution exists outside the dark shadow then for
        // some lower bound a·x + e ≥ 0 we have a·x = -e + i with
        // 0 ≤ i ≤ (a·b_max - a - b_max)/b_max.
        let vb = bounds_for(&rows, col);
        let b_max = vb.uppers.iter().map(|&(_, b)| b).max().unwrap_or(1);
        // One branch at a time under the shared budget, so the first
        // satisfiable branch stops the loop before later ones are built.
        for &(li, a) in &vb.lowers {
            let spread = num::try_sub(num::try_sub(num::try_mul(a, b_max)?, a)?, b_max)?;
            let max_i = num::floor_div(spread, b_max);
            for i in 0..=max_i {
                let mut sys = rows.clone();
                let mut c = rows[li].c.clone();
                c[0] = num::try_add(c[0], -i)?;
                sys.push(Row::new(ConstraintKind::Eq, c));
                if solve(sys, depth + 1, budget, lim)? {
                    return Ok(true);
                }
            }
        }
        return Ok(false);
    }
}

/// Fourier–Motzkin elimination of `col` from a pure-inequality system.
/// `slack = 0` gives the real shadow (exact when a unit coefficient is
/// involved); `slack = 1` gives the dark shadow (subtracting
/// `(a-1)(b-1)` from each combination). Coefficient products that leave
/// the `i64` range surface as [`OmegaError::Overflow`] instead of
/// panicking — FM squares coefficient magnitudes, so this is the solver's
/// most overflow-prone step.
pub(crate) fn fm_eliminate(rows: &[Row], col: usize, slack: i64) -> Result<Vec<Row>, OmegaError> {
    let _span = crate::span!(fm_eliminate, rows = rows.len(), col = col, slack = slack);
    let mut out: Vec<Row> = Vec::new();
    let mut lowers: Vec<&Row> = Vec::new();
    let mut uppers: Vec<&Row> = Vec::new();
    for r in rows {
        let c = r.c[col];
        if c == 0 {
            // Rows (of any kind) not involving the column pass through.
            out.push(r.clone());
            continue;
        }
        debug_assert_eq!(
            r.kind,
            ConstraintKind::Geq,
            "fm_eliminate expects inequalities on the eliminated column"
        );
        if c > 0 {
            lowers.push(r);
        } else {
            uppers.push(r);
        }
    }
    for lo in &lowers {
        let a = lo.c[col];
        for up in &uppers {
            let b = -up.c[col];
            // b*(a x + e_l) + a*(-b x + e_u) ≥ 0  →  b e_l + a e_u ≥ 0
            let mut c = crate::coeffs::Coeffs::zeros(lo.c.len());
            for (j, (&l, &u)) in lo.c.iter().zip(&up.c).enumerate() {
                c[j] = num::try_add(num::try_mul(b, l)?, num::try_mul(a, u)?)?;
            }
            c[col] = 0;
            if slack != 0 {
                let d = num::try_mul(slack, num::try_mul(a - 1, b - 1)?)?;
                c[0] = num::try_sub(c[0], d)?;
            }
            out.push(Row::new(ConstraintKind::Geq, c));
        }
    }
    Ok(out)
}

/// Exact elimination of an inequality-only column when possible: returns
/// `Some(rows)` when all lower-bound or all upper-bound coefficients on
/// `col` are 1 (so plain FM is integer-exact), or when the column is
/// unbounded on one side (rows mentioning it are dropped). Equalities
/// mentioning `col` — or coefficient overflow during elimination — make
/// this return `None` (callers keep the column, which is always sound).
pub(crate) fn try_exact_eliminate(rows: &[Row], col: usize) -> Option<Vec<Row>> {
    let mut lowers: Vec<i64> = Vec::new();
    let mut uppers: Vec<i64> = Vec::new();
    for r in rows {
        let c = r.c[col];
        if c == 0 {
            continue;
        }
        if r.kind == ConstraintKind::Eq {
            return None;
        }
        if c > 0 {
            lowers.push(c);
        } else {
            uppers.push(-c);
        }
    }
    if lowers.is_empty() && uppers.is_empty() {
        return Some(rows.to_vec());
    }
    if lowers.is_empty() || uppers.is_empty() {
        return Some(rows.iter().filter(|r| r.c[col] == 0).cloned().collect());
    }
    let unit_lower = lowers.iter().all(|&a| a == 1);
    let unit_upper = uppers.iter().all(|&b| b == 1);
    if unit_lower || unit_upper {
        fm_eliminate(rows, col, 0).ok()
    } else {
        None
    }
}

/// The strict negation of a `Geq` row, `¬(w·x + c ≥ 0) = -w·x - c - 1 ≥ 0`,
/// or `None` when negation itself would overflow (callers then treat the
/// implication test as undecided, which is always sound).
pub(crate) fn negate_geq(c: &[i64]) -> Option<Vec<i64>> {
    let mut neg: Vec<i64> = Vec::with_capacity(c.len());
    for &x in c {
        neg.push(x.checked_neg()?);
    }
    neg[0] = neg[0].checked_sub(1)?;
    Some(neg)
}

/// Differential suite for [`Probe`]: over random bases (unnormalized and
/// constant rows included), swap slots, replacement rows and removal
/// sequences, a probe answers exactly like the plain Omega test on the
/// swapped system, keys it like [`cache_key`], and its tier-0 shortcut
/// agrees with tier 0 on the swapped system.
#[cfg(test)]
mod probe_differential {
    use super::*;
    use proptest::prelude::*;

    /// Small rows over three variables, as generated (not normalized).
    fn raw_row() -> impl Strategy<Value = Row> {
        (
            prop::bool::weighted(0.7),
            -9i64..=9,
            -4i64..=4,
            -4i64..=4,
            -4i64..=4,
        )
            .prop_map(|(geq, c0, a, b, c)| {
                let kind = if geq {
                    ConstraintKind::Geq
                } else {
                    ConstraintKind::Eq
                };
                Row::new(kind, vec![c0, a, b, c])
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn probe_matches_exact_on_every_swap(
            base in prop::collection::vec(raw_row(), 1..8),
            ops in prop::collection::vec((0usize..8, raw_row(), prop::bool::weighted(0.3)), 1..8),
        ) {
            let mut base = base;
            let mut probe = Probe::new(base.clone(), 3);
            for (pick, row, remove) in ops {
                if base.is_empty() {
                    break;
                }
                let slot = pick % base.len();
                let mut swapped = base.clone();
                swapped[slot] = row.clone();
                let exact = exact_satisfiable(&swapped, 3);
                let mut normal = row.clone();
                let lane = Lane::of(&mut normal);
                match probe.swapped_key(slot, lane) {
                    Ok(key) => {
                        let mut rows = probe.rows.clone();
                        rows[slot] = normal;
                        prop_assert_eq!(key, cache_key(&rows), "key of {:?}", swapped);
                        // The tier-0 shortcut, whether the base's
                        // cleanliness is already known or learned now.
                        let clean = tier::tier0(&probe.rows) == Verdict::Unknown;
                        prop_assert!(probe.clean.is_none_or(|c| c == clean), "{:?}", probe.rows);
                        for mut known in [None, probe.clean] {
                            prop_assert_eq!(
                                swapped_tier0(&mut known, &rows, slot, &probe.rows[slot]),
                                tier::tier0(&rows),
                                "tier 0 on {:?}", rows
                            );
                            prop_assert_eq!(known, Some(clean), "base {:?}", probe.rows);
                        }
                    }
                    Err(decided) => prop_assert_eq!(decided, exact, "{:?}", swapped),
                }
                prop_assert_eq!(probe.sat_swapped(slot, row), exact, "{:?}", swapped);
                if remove {
                    base.remove(slot);
                    probe.remove(slot);
                }
            }
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

    // Columns: [const, x, y] unless stated otherwise.

    #[test]
    fn cache_key_ignores_row_order_and_constant_rows() {
        let rows = [geq(&[0, 1, 0]), geq(&[10, -1, 0]), eq(&[-3, 1, -1])];
        let key = cache_key(&rows);
        for perm in [[0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            let permuted: Vec<Row> = perm.iter().map(|&i| rows[i].clone()).collect();
            assert_eq!(cache_key(&permuted), key, "permutation {perm:?}");
        }
        // True constant rows (`5 >= 0`, `0 = 0`) drop out of the key.
        let mut padded = vec![geq(&[5, 0, 0])];
        padded.extend(rows.iter().cloned());
        padded.push(eq(&[0, 0, 0]));
        assert_eq!(cache_key(&padded), key);
        // A different system keys differently.
        assert_ne!(cache_key(&rows[..2]), key);
        assert_ne!(
            cache_key(&[geq(&[1, 1, 0]), rows[1].clone(), rows[2].clone()]),
            key
        );
    }

    #[test]
    fn trivial_systems() {
        assert!(rows_satisfiable(&[], 0));
        assert!(rows_satisfiable(&[geq(&[5])], 0));
        assert!(!rows_satisfiable(&[geq(&[-1])], 0));
        assert!(!rows_satisfiable(&[eq(&[3])], 0));
    }

    #[test]
    fn simple_bounds() {
        // 0 <= x <= 10
        assert!(rows_satisfiable(&[geq(&[0, 1]), geq(&[10, -1])], 1));
        // 5 <= x <= 3  — empty
        assert!(!rows_satisfiable(&[geq(&[-5, 1]), geq(&[3, -1])], 1));
        // x <= 3 && x >= 3 — single point
        assert!(rows_satisfiable(&[geq(&[-3, 1]), geq(&[3, -1])], 1));
    }

    #[test]
    fn rational_but_not_integer() {
        // 2x = 1
        assert!(!rows_satisfiable(&[eq(&[-1, 2])], 1));
        // 2 <= 2x <= 3 has rational solutions (1..1.5) and integer x=1.
        assert!(rows_satisfiable(&[geq(&[-2, 2]), geq(&[3, -2])], 1));
        // 3 <= 2x <= 3: only x=1.5 — no integer point.
        assert!(!rows_satisfiable(&[geq(&[-3, 2]), geq(&[3, -2])], 1));
    }

    #[test]
    fn dark_shadow_needed() {
        // Pugh's classic Omega-test example: 27 <= 11x + 13y <= 45 and
        // -10 <= 7x - 9y <= 4 has rational solutions but NO integer ones —
        // proving it requires going beyond the real shadow.
        let rows = vec![
            geq(&[-27, 11, 13]),
            geq(&[45, -11, -13]),
            geq(&[10, 7, -9]),
            geq(&[4, -7, 9]),
        ];
        assert!(!rows_satisfiable(&rows, 2));
        // Relaxing the second pair makes x=2, y=1 feasible (11*2+13=35,
        // 7*2-9=5 ∈ [-10, 8]).
        let rows = vec![
            geq(&[-27, 11, 13]),
            geq(&[45, -11, -13]),
            geq(&[10, 7, -9]),
            geq(&[8, -7, 9]),
        ];
        assert!(rows_satisfiable(&rows, 2));
    }

    #[test]
    fn splinter_needed_unsat() {
        // 3 | x (via equality with wildcard is elsewhere); here a known
        // integer-gap case: 2x >= 1 && 2x <= 1 is x = 0.5 only.
        assert!(!rows_satisfiable(&[geq(&[-1, 2]), geq(&[1, -2])], 1));
        // 6 <= 3x <= 7 && 4 <= 2x <= 5: x in [2,7/3] ∩ [2,2.5] → x=2 ✓
        assert!(rows_satisfiable(
            &[geq(&[-6, 3]), geq(&[7, -3]), geq(&[-4, 2]), geq(&[5, -2])],
            1
        ));
        // 7 <= 3x <= 8 (x in [7/3, 8/3]) — no integer
        assert!(!rows_satisfiable(&[geq(&[-7, 3]), geq(&[8, -3])], 1));
    }

    /// The value of inequality row `r` at `(x, y)`.
    fn at(r: &Row, (x, y): (i64, i64)) -> i64 {
        r.c[0] + r.c[1] * x + r.c[2] * y
    }

    /// Brute-force integer points of a two-variable system in `[-20, 20]²`
    /// (every system below is bounded well inside that box).
    fn points_in_box(rows: &[Row]) -> Vec<(i64, i64)> {
        let square = (-20..=20).flat_map(|x| (-20..=20).map(move |y| (x, y)));
        square
            .filter(|&p| rows.iter().all(|r| at(r, p) >= 0))
            .collect()
    }

    /// Asserts that eliminating `col` must splinter (a non-unit coefficient
    /// among both its lower and its upper bounds, an empty dark shadow, a
    /// non-empty real shadow) and returns the width of the splinter fan.
    fn splinter_width(rows: &[Row], col: usize) -> i64 {
        let vb = bounds_for(rows, col);
        assert!(
            vb.lowers.iter().any(|&(_, a)| a > 1),
            "col {col}: exact lower"
        );
        assert!(
            vb.uppers.iter().any(|&(_, b)| b > 1),
            "col {col}: exact upper"
        );
        let dark = fm_eliminate(rows, col, 1).unwrap();
        let real = fm_eliminate(rows, col, 0).unwrap();
        assert!(
            !exact_satisfiable(&dark, 2),
            "col {col}: dark shadow decides"
        );
        assert!(
            exact_satisfiable(&real, 2),
            "col {col}: real shadow decides"
        );
        let b_max = vb.uppers.iter().map(|&(_, b)| b).max().unwrap();
        vb.lowers
            .iter()
            .map(|&(_, a)| (a * b_max - a - b_max).div_euclid(b_max) + 1)
            .sum()
    }

    #[test]
    fn splinter_verdicts_match_enumeration() {
        // `exact_satisfiable` bypasses the cache and tiers 0/1, so every
        // verdict below comes out of the splinter loop. Whichever variable
        // the solver eliminates first, it has to splinter (checked by
        // `splinter_width`).
        let system = |rows: &[[i64; 3]]| rows.iter().map(|c| geq(c)).collect::<Vec<Row>>();

        // Pugh's dark-shadow example: unsatisfiable, which takes every
        // branch of the fan.
        let pugh = system(&[[-27, 11, 13], [45, -11, -13], [10, 7, -9], [4, -7, 9]]);
        // One integer point, (1, 2), with slack in every row: no branch
        // that pins a lower bound to its minimum holds it, and dropping
        // either the last branch of each lower bound's fan or every fan
        // after the first loses it.
        let later = system(&[[-15, 8, 5], [-2, -21, 22], [-25, 13, 12], [50, -14, -17]]);
        assert_eq!(points_in_box(&later), [(1, 2)]);
        assert!(later.iter().all(|r| at(r, (1, 2)) >= 1));
        // Fans wider than 64 branches on either variable, one
        // unsatisfiable and one with the single point (1, -1).
        let wide_unsat = system(&[[33, -35, 26], [1, 43, 19], [-5, 22, -41], [-21, 28, 27]]);
        let wide_sat = system(&[[62, 40, -43], [-64, 27, -44], [62, -15, 43], [86, -41, 25]]);
        assert_eq!(points_in_box(&wide_sat), [(1, -1)]);
        for rows in [&wide_unsat, &wide_sat] {
            for col in 1..=2 {
                assert!(splinter_width(rows, col) > 64, "{rows:?} col {col}");
            }
        }

        for rows in [pugh, later, wide_unsat, wide_sat] {
            for col in 1..=2 {
                splinter_width(&rows, col);
            }
            let brute = !points_in_box(&rows).is_empty();
            assert_eq!(exact_satisfiable(&rows, 2), brute, "rows: {rows:?}");
        }
    }

    #[test]
    fn equality_with_nonunit_coefficients() {
        // 3x + 5y = 1 has integer solutions (x=2, y=-1)
        assert!(rows_satisfiable(&[eq(&[-1, 3, 5])], 2));
        // 6x + 9y = 1: gcd 3 does not divide 1 — unsat
        assert!(!rows_satisfiable(&[eq(&[-1, 6, 9])], 2));
        // 6x + 9y = 3 — sat
        assert!(rows_satisfiable(&[eq(&[-3, 6, 9])], 2));
    }

    #[test]
    fn equality_plus_bounds() {
        // y = 2x && 1 <= x <= 100 && y = 7 → 7 = 2x unsat
        let rows = vec![
            eq(&[0, 2, -1]),    // 2x - y = 0
            geq(&[-1, 1, 0]),   // x >= 1
            geq(&[100, -1, 0]), // x <= 100
            eq(&[-7, 0, 1]),    // y = 7
        ];
        assert!(!rows_satisfiable(&rows, 2));
        // y = 8 instead → x = 4 ✓
        let rows = vec![
            eq(&[0, 2, -1]),
            geq(&[-1, 1, 0]),
            geq(&[100, -1, 0]),
            eq(&[-8, 0, 1]),
        ];
        assert!(rows_satisfiable(&rows, 2));
    }

    #[test]
    fn unbounded_variable_dropped() {
        // x >= 5 (no upper) && y = 3
        assert!(rows_satisfiable(&[geq(&[-5, 1, 0]), eq(&[-3, 0, 1])], 2));
    }

    #[test]
    fn three_variable_mixed() {
        // x + y + z = 10, x >= y, y >= z, z >= 0, x <= 4 → x≥⌈10/3⌉=4 → x=4,
        // y+z=6, 4>=y>=z>=0 → y=3..4 fine (y=3,z=3) ✓
        let rows = vec![
            eq(&[-10, 1, 1, 1]),
            geq(&[0, 1, -1, 0]),
            geq(&[0, 0, 1, -1]),
            geq(&[0, 0, 0, 1]),
            geq(&[4, -1, 0, 0]),
        ];
        assert!(rows_satisfiable(&rows, 3));
        // tighten x <= 3 → x+y+z <= 9 < 10 → unsat
        let rows = vec![
            eq(&[-10, 1, 1, 1]),
            geq(&[0, 1, -1, 0]),
            geq(&[0, 0, 1, -1]),
            geq(&[0, 0, 0, 1]),
            geq(&[3, -1, 0, 0]),
        ];
        assert!(!rows_satisfiable(&rows, 3));
    }

    #[test]
    fn stride_intersection_empty() {
        // x = 2a (even), x = 2b + 1 (odd): columns [const, x, a, b]
        let rows = vec![eq(&[0, 1, -2, 0]), eq(&[-1, 1, 0, -2])];
        assert!(!rows_satisfiable(&rows, 3));
        // even ∧ multiple of 3 → multiples of 6 exist
        let rows = vec![eq(&[0, 1, -2, 0]), eq(&[0, 1, 0, -3])];
        assert!(rows_satisfiable(&rows, 3));
    }

    #[test]
    fn stride_with_window() {
        // x even, 3 <= x <= 3 → x=3 odd → unsat
        let rows = vec![eq(&[0, 1, -2]), geq(&[-3, 1, 0]), geq(&[3, -1, 0])];
        assert!(!rows_satisfiable(&rows, 2));
        // x even, 3 <= x <= 4 → x=4 ✓
        let rows = vec![eq(&[0, 1, -2]), geq(&[-3, 1, 0]), geq(&[4, -1, 0])];
        assert!(rows_satisfiable(&rows, 2));
        // x ≡ 1 mod 4 within [2, 4] → none (candidates 1, 5)
        let rows = vec![eq(&[-1, 1, -4]), geq(&[-2, 1, 0]), geq(&[4, -1, 0])];
        assert!(!rows_satisfiable(&rows, 2));
    }

    #[test]
    fn brute_force_agreement_two_vars() {
        // Random-ish small systems: compare against brute force over a box.
        let cases: Vec<Vec<Row>> = vec![
            vec![
                geq(&[-1, 2, 3]),
                geq(&[7, -1, -2]),
                geq(&[0, 1, 0]),
                geq(&[0, 0, 1]),
            ],
            vec![
                geq(&[-5, 3, -2]),
                geq(&[5, -3, 2]),
                geq(&[8, -1, -1]),
                geq(&[0, 1, 1]),
            ],
            vec![eq(&[-4, 2, 2]), geq(&[0, 1, -1])],
            vec![
                geq(&[-9, 5, 0]),
                geq(&[9, -5, 0]),
                geq(&[-2, 0, 3]),
                geq(&[2, 0, -3]),
            ],
        ];
        for rows in cases {
            let mut brute = false;
            'outer: for x in -30..=30 {
                for y in -30..=30 {
                    if rows.iter().all(|r| {
                        let v = r.c[0] + r.c[1] * x + r.c[2] * y;
                        match r.kind {
                            ConstraintKind::Eq => v == 0,
                            ConstraintKind::Geq => v >= 0,
                        }
                    }) {
                        brute = true;
                        break 'outer;
                    }
                }
            }
            // The box is wide enough for these coefficient magnitudes that a
            // solution, if any, appears inside it.
            assert_eq!(rows_satisfiable(&rows, 2), brute, "rows: {rows:?}");
        }
    }

    #[test]
    fn try_exact_eliminate_cases() {
        // unit lower: x >= 0, 2x <= 9, y = x rows... keep it inequality-only
        let rows = vec![geq(&[0, 1, 0]), geq(&[9, -2, 0]), geq(&[5, 0, -1])];
        let out = try_exact_eliminate(&rows, 1).expect("exact");
        // Eliminating x leaves only the y constraint plus the combination 9 - 2*0 >= 0.
        assert!(out.iter().all(|r| r.c[1] == 0));
        // non-unit on both sides → None
        let rows = vec![geq(&[0, 2, 0]), geq(&[9, -3, 0])];
        assert!(try_exact_eliminate(&rows, 1).is_none());
        // equality mentioning col → None
        let rows = vec![eq(&[0, 1, -2])];
        assert!(try_exact_eliminate(&rows, 1).is_none());
    }
}
