//! The Omega+ `Hull` operation: an approximate single-conjunct enclosure of
//! a union of conjuncts, preserving common stride (lattice) structure.

use crate::coeffs::Coeffs;
use crate::conjunct::{Conjunct, Row};
use crate::linexpr::ConstraintKind;
use crate::num;
use crate::sat::Probe;
use crate::set::Set;

/// Computes an approximate hull: a single conjunct containing every point of
/// `s`. Constraints are kept only when every conjunct of `s` implies them;
/// congruences over the same expression are merged into the coarsest common
/// lattice (e.g. `j ≡ i mod 4` ∪ `j ≡ i mod 6` → `j ≡ i mod 2`).
pub(crate) fn hull(s: &Set) -> Conjunct {
    let _span = crate::span!(hull, conjuncts = s.conjuncts().len());
    let space = s.space().clone();
    let live: Vec<Conjunct> = s
        .conjuncts()
        .iter()
        .filter(|c| c.is_sat())
        .map(crate::project::simplify_conjunct)
        .collect();
    if live.is_empty() {
        return Conjunct::empty(&space);
    }
    if live.len() == 1 {
        return crate::gist::drop_self_redundant(live.into_iter().next().unwrap());
    }
    let named = 1 + space.n_named();

    // Candidate inequality constraints: every local-free row of every
    // conjunct (equalities contribute both directions), each paired with
    // the index of the conjunct it came from.
    let mut candidates: Vec<(Coeffs, usize)> = Vec::new();
    for (i, c) in live.iter().enumerate() {
        for r in c.rows() {
            if r.c[named..].iter().any(|&x| x != 0) {
                continue;
            }
            let base = Coeffs::from_slice(&r.c[..named]);
            match r.kind {
                ConstraintKind::Geq => candidates.push((base, i)),
                ConstraintKind::Eq => {
                    if let Some(flipped) = base
                        .iter()
                        .map(|&x| x.checked_neg())
                        .collect::<Option<Coeffs>>()
                    {
                        candidates.push((flipped, i));
                    }
                    candidates.push((base, i));
                }
            }
        }
    }
    candidates.sort();

    // One probe per live conjunct, with a reserved trailing slot (holding
    // `0 ≥ 0`) for the negated candidate: each implication test is then a
    // single row swap plus a satisfiability query instead of a conjunct
    // clone per (conjunct, candidate) pair.
    let mut tests: Vec<Probe> = live
        .iter()
        .map(|c| {
            let n_vars = c.ncols() - 1;
            let mut sys = Vec::with_capacity(c.n_rows() + 1);
            sys.extend_from_slice(c.rows());
            sys.push(Row::new(ConstraintKind::Geq, Coeffs::zeros(1 + n_vars)));
            Probe::new(sys, n_vars)
        })
        .collect();
    let mut out = Conjunct::universe(&space);
    for group in candidates.chunk_by(|a, b| a.0 == b.0) {
        let is_source = |i: usize| group.iter().any(|&(_, s)| s == i);
        if implied_by_all(&mut tests, &group[0].0, is_source) {
            let mut row = group[0].0.clone();
            row.resize(out.ncols(), 0);
            out.push_row(Row::new(ConstraintKind::Geq, row));
        }
    }

    apply_lattice(&mut out, &live, named, &space);
    out.canonicalize();
    // Drop dominated candidates (e.g. `v ≤ n` next to `v ≤ n-1`) so loop
    // bounds stay minimal.
    let out = crate::gist::drop_self_redundant(out);
    // The hull must contain every input conjunct (checked when decidable).
    debug_assert!(live.iter().all(|c| {
        crate::set::Set::from_conjunct(c.clone())
            .try_is_subset(&crate::set::Set::from_conjunct(out.clone()))
            .unwrap_or(true)
    }));
    out
}

/// Is the candidate inequality implied by every test system? (Each test
/// swaps the reserved trailing slot for the negated candidate and asks for
/// unsatisfiability.) A system the candidate is a row of (`is_source`)
/// implies it without a query. An unnegatable candidate (i64-extremal
/// coefficients) is dropped: the hull only shrinks toward the bounding
/// box, which is sound.
fn implied_by_all(tests: &mut [Probe], cand: &[i64], is_source: impl Fn(usize) -> bool) -> bool {
    crate::sat::negate_geq(cand).is_some_and(|neg| {
        tests.iter_mut().enumerate().all(|(i, probe)| {
            if is_source(i) {
                return true;
            }
            let mut neg = neg.clone();
            neg.resize(1 + probe.n_vars(), 0);
            !probe.sat_swapped(probe.len() - 1, Row::new(ConstraintKind::Geq, neg))
        })
    })
}

/// Merges common congruence (lattice) structure from every live conjunct
/// into the hull.
fn apply_lattice(out: &mut Conjunct, live: &[Conjunct], named: usize, space: &crate::Space) {
    // Common lattice: group congruences by sign-normalized non-constant
    // part; the combined modulus is the gcd of all moduli and residue
    // differences.
    let groups = congruence_groups(live, named);
    for (w, entries) in groups {
        if entries.len() != live.len() {
            continue; // some conjunct lacks a congruence on this expression
        }
        let (r0, _) = entries[0];
        let mut g = 0i64;
        for &(r, m) in &entries {
            g = num::gcd(g, m);
            g = num::gcd(g, r - r0);
        }
        if g > 1 {
            let mut raw = vec![0i64; named];
            raw[0] = -num::mod_floor(r0, g);
            raw[1..].copy_from_slice(&w);
            let expr = crate::linexpr::LinExpr::from_raw(space, &raw);
            out.add_congruence(&expr, 0, g);
        }
    }
}

type Groups = Vec<(Vec<i64>, Vec<(i64, i64)>)>;

/// For each sign-normalized non-constant expression `w`, the list of
/// `(residue, modulus)` congruences, one entry per conjunct that has one.
fn congruence_groups(live: &[Conjunct], named: usize) -> Groups {
    let mut groups: Groups = Vec::new();
    for c in live {
        let mut seen_for_this: Vec<usize> = Vec::new();
        for (expr, m) in c.congruences() {
            let raw = expr.raw_coeffs();
            let mut w: Vec<i64> = raw[1..named].to_vec();
            let mut c0 = raw[0];
            if let Some(&first) = w.iter().find(|&&x| x != 0) {
                if first < 0 {
                    for x in &mut w {
                        *x = -*x;
                    }
                    c0 = -c0;
                }
            }
            let r = num::mod_floor(-c0, m);
            let idx = match groups.iter().position(|(gw, _)| gw == &w) {
                Some(i) => i,
                None => {
                    groups.push((w, Vec::new()));
                    groups.len() - 1
                }
            };
            // Only one congruence per conjunct per expression counts toward
            // the "every conjunct has one" requirement.
            if !seen_for_this.contains(&idx) {
                groups[idx].1.push((r, m));
                seen_for_this.push(idx);
            }
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(text: &str) -> Set {
        Set::parse(text).unwrap()
    }

    #[test]
    fn hull_single_conjunct_is_identity_like() {
        let s = set("{ [i,j] : 0 <= i <= 9 && j = i }");
        let h = s.hull();
        for i in -2..12 {
            for j in -2..12 {
                assert_eq!(
                    h.contains(&[], &[i, j]),
                    s.contains(&[], &[i, j]),
                    "i={i} j={j}"
                );
            }
        }
    }

    #[test]
    fn paper_hull_example() {
        // Hull({1<=i,j<=100 && ∃a(j=i+4a)} ∪ {1<=i<=50 && 1<=j<=200 && ∃a(j=i+6a)})
        //   = {1<=i<=100 && 1<=j<=200 && ∃a(j=i+2a)}
        let s = set(
            "{ [i,j] : 1 <= i <= 100 && 1 <= j <= 100 && exists(a : j = i + 4a) } \
             | { [i,j] : 1 <= i <= 50 && 1 <= j <= 200 && exists(a : j = i + 6a) }",
        );
        let h = s.hull();
        // Bounds stretched to the union's bounding box.
        assert!(h.contains(&[], &[100, 100]));
        assert!(h.contains(&[], &[1, 199]));
        assert!(!h.contains(&[], &[101, 101]));
        assert!(!h.contains(&[], &[0, 2]));
        assert!(!h.contains(&[], &[1, 201]));
        // Lattice: j - i even kept, odd excluded.
        assert!(h.contains(&[], &[2, 4]));
        assert!(!h.contains(&[], &[2, 5]));
        let cg = h.congruences();
        assert_eq!(cg.len(), 1);
        assert_eq!(cg[0].1, 2);
    }

    #[test]
    fn hull_contains_all_inputs() {
        let s = set("{ [i,j] : 0 <= i <= 4 && j = 0 } | { [i,j] : 10 <= i <= 14 && j = 1 }");
        let h = s.hull();
        for i in -2..20 {
            for j in -2..4 {
                if s.contains(&[], &[i, j]) {
                    assert!(h.contains(&[], &[i, j]), "hull must contain ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn hull_of_empty_is_false() {
        let s = set("{ [i,j] : i >= 1 && i <= 0 }");
        assert!(s.hull().is_known_false() || !s.hull().is_sat());
    }

    #[test]
    fn hull_merges_residues_into_common_lattice() {
        // i ≡ 1 mod 4  ∪  i ≡ 3 mod 4  →  i ≡ 1 mod 2
        let s = set("{ [i,j] : exists(a : i = 4a + 1) } | { [i,j] : exists(a : i = 4a + 3) }");
        let h = s.hull();
        let cg = h.congruences();
        assert_eq!(cg.len(), 1, "hull {h}");
        assert_eq!(cg[0].1, 2);
        assert!(h.contains(&[], &[3, 0]));
        assert!(!h.contains(&[], &[2, 0]));
    }

    #[test]
    fn hull_is_conjunct_of_valid_constraints() {
        // Paper Hull semantics: result includes all points; spot-check a
        // union with parameters.
        let s = Set::parse(
            "[n] -> { [i,j] : 1 <= i <= n && j = 0 } | [n] -> { [i,j] : 1 <= i <= n && j = 1 }",
        )
        .unwrap();
        let h = s.hull();
        assert!(h.contains(&[5], &[3, 0]));
        assert!(h.contains(&[5], &[3, 1]));
        assert!(!h.contains(&[5], &[6, 0]));
    }
}
