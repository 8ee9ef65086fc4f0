//! The Omega `Gist` operation: `Gist(A, B) ∧ B = A ∧ B`, i.e. "given that B
//! is known, what extra information does A carry?" — including the Omega+
//! enhancement that reduces the strength of modulo constraints using
//! Chinese-remainder reasoning.

use crate::coeffs::Coeffs;
use crate::conjunct::{Conjunct, Row};
use crate::linexpr::ConstraintKind;
use crate::num;
use crate::sat::RowHash;
use crate::set::{atoms, local_groups, Set};

/// Gist over sets. The context is collapsed to its hull if it is a union.
pub(crate) fn gist(a: &Set, ctx: &Set) -> Set {
    let ctx_conj: Conjunct = match ctx.as_single_conjunct() {
        Some(c) => c.clone(),
        None => ctx.hull(),
    };
    let mut out = Set::empty(a.space());
    for c in a.conjuncts() {
        let g = gist_conjunct(c, &ctx_conj);
        if !g.is_known_false() {
            out.push_conjunct(g);
        }
    }
    out
}

/// Gist of one conjunct against a conjunct context. Returns a conjunct that
/// is TRUE when `a` adds nothing, or a known-FALSE conjunct when
/// `a ∧ ctx` is empty.
pub(crate) fn gist_conjunct(a: &Conjunct, ctx: &Conjunct) -> Conjunct {
    assert_eq!(a.space(), ctx.space(), "space mismatch in gist");
    let span = crate::span!(gist_query, rows = a.rows().len(), locals = a.n_locals());
    let key = gist_key(a, ctx);
    if let Some(hit) = crate::cache::GIST.lookup(key) {
        crate::stats::bump!(gist_hits);
        span.attr("tier", "cache");
        return hit;
    }
    crate::stats::bump!(gist_misses);
    // Uncached gist: a detached per-query trace root, keyed by the cache
    // fingerprint so merged traces order it deterministically.
    let exact = crate::root_span!(gist_exact, rows = a.rows().len(), locals = a.n_locals());
    exact.attr_with("key", || format!("{:016x}{:016x}", key.0, key.1));
    // Observe the degradation delta of this one computation: a gist built
    // on degraded (conservative) implication answers is still sound, but
    // it must not be memoized — a later caller with fresher limits
    // deserves the exact result. Only certainly-exact gists enter the
    // process-wide cache.
    let (out, reasons) = crate::limits::observe(|| gist_conjunct_uncached(a, ctx));
    if reasons.is_empty() {
        crate::cache::GIST.insert(key, out.clone());
        // Exact gists are dumpable as replayable test cases (degraded ones
        // carry no checkable expectation and are only recorded in spans).
        if let Some(c) = crate::trace::current().filter(|c| c.wants_dumps()) {
            let text = crate::provenance::gist_dump_text(a, ctx, &out);
            c.submit_dump("gist", text);
        }
    } else {
        crate::stats::bump!(gist_degraded);
        exact.attr("degraded", true);
    }
    span.attr("tier", "tier2");
    out
}

/// Order-sensitive fingerprint of a `(conjunct, context)` pair. Unlike the
/// sat-cache key this must NOT be commutative: gist output depends on row
/// order (greedy redundancy elimination keeps the first of two mutually
/// redundant rows), so the sat fingerprint's mixer ([`RowHash`]) runs in
/// order over the whole pair instead of summing per-row lanes. Space
/// names are hashed by their bytes — two spaces at the same address over
/// a program's lifetime are not necessarily equal.
fn gist_key(a: &Conjunct, ctx: &Conjunct) -> (u64, u64) {
    let mut h = RowHash::EMPTY;
    let space = a.space();
    for name in space.param_names().iter().chain(space.var_names()) {
        for &b in name.as_bytes() {
            h.mix(b as i64);
        }
        h.mix(0xff); // name terminator
    }
    for c in [a, ctx] {
        h.mix(c.is_known_false() as i64);
        h.mix(c.n_locals() as i64);
        h.mix(c.rows().len() as i64);
        for r in c.rows() {
            h.mix(r.kind as i64);
            for &x in &r.c {
                h.mix(x);
            }
        }
    }
    h.finish()
}

fn gist_conjunct_uncached(a: &Conjunct, ctx: &Conjunct) -> Conjunct {
    if ctx.is_known_false() {
        // Everything is known in an impossible context.
        return Conjunct::universe(a.space());
    }
    if a.is_known_false() || !a.intersect(ctx).is_sat() {
        return Conjunct::empty(a.space());
    }
    let a = crate::project::simplify_conjunct(a);
    let ctx_simpl = crate::project::simplify_conjunct(ctx);

    let space = a.space().clone();
    let named = 1 + space.n_named();

    // Split `a` into atoms; process congruences specially.
    let ctx_congruences = congruence_keys(&ctx_simpl);
    let mut result = Conjunct::universe(&space);
    let mut pending_local_free: Vec<Row> = Vec::new();
    for atom in atoms(&a) {
        if atom.n_locals() == 0 {
            pending_local_free.extend(atom.rows().iter().cloned());
            continue;
        }
        if let Some(ck) = congruence_key_of_atom(&atom) {
            // Reduce against every context congruence over the same
            // expression (the context may know several moduli at once).
            let mut cur = Some((ck.r, ck.m));
            let mut handled = false;
            for bk in &ctx_congruences {
                if bk.w != ck.w {
                    continue;
                }
                handled = true;
                let (r, m) = match cur {
                    Some(rm) => rm,
                    None => break,
                };
                match num::gist_congruence(r, m, bk.r, bk.m) {
                    None => return Conjunct::empty(&space),
                    Some((rho, mu)) => {
                        cur = if mu > 1 { Some((rho, mu)) } else { None };
                    }
                }
            }
            match (handled, cur) {
                (true, None) => {} // fully absorbed by context congruences
                (true, Some((rho, mu))) | (false, Some((rho, mu))) => {
                    // The context may still imply the (possibly reduced)
                    // congruence through a *combination* of constraints
                    // (e.g. a stride plus a range-mod window).
                    let mut reduced = Conjunct::universe(&space);
                    let expr = key_to_expr(&space, &ck.w, rho);
                    reduced.add_congruence(&expr, 0, mu);
                    if !implied_by(&ctx_simpl, &reduced) {
                        result.add_congruence(&expr, 0, mu);
                    }
                }
                (false, None) => copy_atom_into(&mut result, &atom),
            }
            continue;
        }
        // Range-mod or other existential atoms: keep unless implied by ctx.
        if implied_by(&ctx_simpl, &atom) {
            continue;
        }
        copy_atom_into(&mut result, &atom);
    }

    // Greedy redundancy elimination for local-free rows: drop each row
    // implied by ctx ∧ (other kept rows of a) ∧ (existential part kept).
    // The test system is one probe; each candidate row is swapped for its
    // negation in place instead of re-intersecting per row.
    let mut kept: Vec<Row> = pending_local_free;
    let base = ctx_simpl.intersect(&result);
    if base.is_known_false() {
        // Vacuously implied context (cannot arise for satisfiable a ∧ ctx,
        // but mirror the old per-row behavior: everything is implied).
        kept.clear();
    }
    let width = base.ncols();
    let widen = |r: &Row| {
        let mut c = Coeffs::zeros(width);
        c[..named].copy_from_slice(&r.c[..named]);
        c
    };
    let mut sys: Vec<Row> = Vec::with_capacity(base.n_rows() + kept.len());
    sys.extend_from_slice(base.rows());
    let fixed = sys.len();
    sys.extend(kept.iter().map(|r| Row::new(r.kind, widen(r))));
    let mut probe = crate::sat::Probe::new(sys, width - 1);
    let mut i = 0;
    while i < kept.len() {
        let slot = fixed + i;
        let c = widen(&kept[i]);
        let mut unsat_with = |c: Coeffs| !probe.sat_swapped(slot, Row::new(ConstraintKind::Geq, c));
        // An unnegatable row (i64-extremal coefficients) is simply kept:
        // treating the implication as undecided is sound.
        let implied = match kept[i].kind {
            ConstraintKind::Geq => crate::sat::negate_geq(&c).is_some_and(&mut unsat_with),
            ConstraintKind::Eq => {
                // row = 0 is implied iff neither strict side intersects.
                let strict_lower = c[0].checked_sub(1).map(|c0| {
                    let mut c1 = c.clone();
                    c1[0] = c0;
                    c1
                });
                match (strict_lower, crate::sat::negate_geq(&c)) {
                    (Some(c1), Some(c2)) => unsat_with(c1) && unsat_with(c2),
                    _ => false,
                }
            }
        };
        if implied {
            kept.remove(i);
            probe.remove(slot);
        } else {
            i += 1;
        }
    }
    for r in kept {
        let mut c = Coeffs::zeros(result.ncols());
        c[..named].copy_from_slice(&r.c[..named]);
        result.push_row(Row::new(r.kind, c));
    }
    result.compress_locals();
    result.canonicalize();
    result
}

/// Drops rows of `out` implied by the remaining rows (gist against TRUE).
pub(crate) fn drop_self_redundant(mut out: Conjunct) -> Conjunct {
    if out.is_known_false() {
        return out;
    }
    // In-place candidate swap: negate row i, test, keep or remove.
    // Inequality rows only; equalities and congruences carry structural
    // information the scanner wants to keep.
    let mut probe = crate::sat::Probe::new(out.rows().to_vec(), out.ncols() - 1);
    let rows = out.rows_mut();
    let mut i = 0;
    while i < rows.len() {
        if rows[i].kind != ConstraintKind::Geq {
            i += 1;
            continue;
        }
        let Some(neg) = crate::sat::negate_geq(&rows[i].c) else {
            // Unnegatable row: keep it (sound — dropping needs proof).
            i += 1;
            continue;
        };
        if probe.sat_swapped(i, Row::new(ConstraintKind::Geq, neg)) {
            i += 1;
        } else {
            rows.remove(i);
            probe.remove(i);
        }
    }
    out
}

/// Does `ctx` imply every row of `atom` (aligned over fresh locals)? Sound
/// but approximate for existential atoms: we test `ctx ∧ ¬atom` emptiness
/// when the atom is complementable, and fall back to syntactic membership
/// (an identical atom in the context) otherwise.
fn implied_by(ctx: &Conjunct, atom: &Conjunct) -> bool {
    if let Some(neg) = crate::set::try_complement_atom(atom) {
        return neg.iter().all(|piece| !ctx.intersect(piece).is_sat());
    }
    let mut atom = atom.clone();
    atom.canonicalize();
    atoms(ctx).into_iter().any(|mut c| {
        c.canonicalize();
        c == atom
    })
}

/// Copies an atom's rows into `dst`, remapping its locals onto fresh ones.
fn copy_atom_into(dst: &mut Conjunct, atom: &Conjunct) {
    let named = 1 + atom.space().n_named();
    let base: Vec<usize> = (0..atom.n_locals()).map(|_| dst.add_local()).collect();
    for r in atom.rows() {
        let mut c = Coeffs::zeros(dst.ncols());
        c[..named].copy_from_slice(&r.c[..named]);
        for (l, &bl) in base.iter().enumerate() {
            c[named + bl] = r.c[named + l];
        }
        dst.push_row(Row::new(r.kind, c));
    }
}

/// A congruence `w·x ≡ r (mod m)` with a sign-normalized non-constant part.
#[derive(Debug, PartialEq, Eq)]
struct CongruenceKey {
    /// Coefficients over `[params..., vars...]` (no constant), first
    /// non-zero entry positive.
    w: Vec<i64>,
    m: i64,
    r: i64,
}

fn congruence_key_of_atom(atom: &Conjunct) -> Option<CongruenceKey> {
    let named = 1 + atom.space().n_named();
    if atom.n_locals() != 1 || atom.rows().len() != 1 {
        return None;
    }
    let row = &atom.rows()[0];
    if row.kind != ConstraintKind::Eq {
        return None;
    }
    let m = row.c[named].abs();
    if m <= 1 {
        return None;
    }
    let mut w: Vec<i64> = row.c[1..named].to_vec();
    let mut c0 = row.c[0];
    if let Some(&first) = w.iter().find(|&&x| x != 0) {
        if first < 0 {
            for x in &mut w {
                *x = -*x;
            }
            c0 = -c0;
        }
    }
    // w·x + c0 ≡ 0 (mod m) ⟺ w·x ≡ -c0 (mod m)
    Some(CongruenceKey {
        w,
        m,
        r: num::mod_floor(-c0, m),
    })
}

fn congruence_keys(c: &Conjunct) -> Vec<CongruenceKey> {
    local_groups(c)
        .iter()
        .filter_map(congruence_key_of_atom)
        .collect()
}

fn key_to_expr(space: &crate::space::Space, w: &[i64], rho: i64) -> crate::linexpr::LinExpr {
    let mut raw = vec![0i64; 1 + space.n_named()];
    raw[0] = -rho;
    raw[1..].copy_from_slice(w);
    crate::linexpr::LinExpr::from_raw(space, &raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linexpr::LinExpr;
    use crate::space::Space;

    fn sp() -> Space {
        Space::new::<&str>(&[], &["i", "j"])
    }

    fn set(text: &str) -> Set {
        Set::parse(text).unwrap()
    }

    #[test]
    fn paper_gist_examples() {
        // Gist({i>10 && j>10}, {j>10}) = {i>10}
        let a = set("{ [i,j] : i > 10 && j > 10 }");
        let b = set("{ [i,j] : j > 10 }");
        let g = a.gist(&b);
        assert_eq!(g.conjuncts().len(), 1);
        assert_eq!(g.conjuncts()[0].to_string(), "i - 11 >= 0");

        // Gist({1<=i<=100}, {i>10}) = {i<=100}
        let a = set("{ [i,j] : 1 <= i <= 100 }");
        let b = set("{ [i,j] : i > 10 }");
        let g = a.gist(&b);
        assert_eq!(g.conjuncts()[0].to_string(), "-i + 100 >= 0");
    }

    #[test]
    fn paper_gist_modulo_strength_reduction() {
        // Gist({∃a(i=6a)}, {∃a(i=2a)}) = {∃a(i=3a)}
        let a = set("{ [i,j] : exists(a : i = 6a) }");
        let b = set("{ [i,j] : exists(a : i = 2a) }");
        let g = a.gist(&b);
        assert_eq!(g.conjuncts().len(), 1);
        let cg = g.conjuncts()[0].congruences();
        assert_eq!(cg.len(), 1);
        assert_eq!(cg[0].1, 3);
        // Soundness: gist ∧ b == a ∧ b pointwise
        let gb = g.intersect(&b);
        let ab = a.intersect(&b);
        for i in -24..=24 {
            assert_eq!(
                gb.contains(&[], &[i, 0]),
                ab.contains(&[], &[i, 0]),
                "i={i}"
            );
        }
    }

    #[test]
    fn gist_incompatible_congruence_is_false() {
        let a = set("{ [i,j] : exists(a : i = 2a) }");
        let b = set("{ [i,j] : exists(a : i = 2a+1) }");
        let g = a.gist(&b);
        assert!(g.is_empty());
    }

    #[test]
    fn gist_of_empty_intersection_is_false() {
        let a = set("{ [i,j] : i >= 10 }");
        let b = set("{ [i,j] : i <= 5 }");
        assert!(a.gist(&b).is_empty());
    }

    #[test]
    fn gist_with_true_context_keeps_all() {
        let s = sp();
        let a = set("{ [i,j] : 0 <= i <= 9 }");
        let g = a.gist(&Set::universe(&s));
        for i in -2..12 {
            assert_eq!(g.contains(&[], &[i, 0]), (0..=9).contains(&i), "i={i}");
        }
    }

    #[test]
    fn gist_identical_congruence_drops() {
        let a = set("{ [i,j] : exists(a : i = 4a+1) }");
        let g = a.gist(&a);
        assert!(
            g.conjuncts().len() == 1 && g.conjuncts()[0].is_universe(),
            "{g}"
        );
    }

    #[test]
    fn gist_defining_property_random() {
        // gist(A, B) ∧ B == A ∧ B over a window for several pairs.
        let cases = [
            (
                "{ [i,j] : 2i + j >= 3 && i <= 10 }",
                "{ [i,j] : i >= 0 && j >= 0 }",
            ),
            (
                "{ [i,j] : exists(a : i = 3a) && 0 <= i <= 30 }",
                "{ [i,j] : exists(b : i = 6b) }",
            ),
            (
                "{ [i,j] : i = j && 0 <= i <= 5 }",
                "{ [i,j] : 0 <= j <= 5 }",
            ),
        ];
        for (ta, tb) in cases {
            let a = set(ta);
            let b = set(tb);
            let g = a.gist(&b);
            let gb = g.intersect(&b);
            let ab = a.intersect(&b);
            for i in -9..=9 {
                for j in -9..=9 {
                    assert_eq!(
                        gb.contains(&[], &[i, j]),
                        ab.contains(&[], &[i, j]),
                        "A={ta} B={tb} i={i} j={j} gist={g}"
                    );
                }
            }
        }
    }

    #[test]
    fn drop_self_redundant_removes_weaker_bound() {
        let s = sp();
        let mut c = Conjunct::universe(&s);
        c.add_constraint(&(LinExpr::var(&s, 0) - 5).geq0()); // i >= 5
        c.add_constraint(&LinExpr::var(&s, 0).geq0()); // i >= 0 (redundant)
        let out = drop_self_redundant(c);
        assert_eq!(out.n_rows(), 1);
        assert_eq!(out.rows()[0].c[0], -5);
    }
}
