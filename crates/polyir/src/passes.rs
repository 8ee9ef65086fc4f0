//! A small optimizing "compiler" over the generated-code IR. Its wall-clock
//! time is the repository's stand-in for the gcc compile times of the
//! paper's Table 1: each pass does work proportional to (and, for the CSE
//! pass, quadratic in) the size of the generated code, so relative compile
//! times track generated-code complexity the same way gcc's do.

use crate::expr::{Cond, CondAtom, Expr};
use crate::stmt::Stmt;

/// Statistics and the optimized program produced by [`compile`].
#[derive(Clone, Debug)]
pub struct CompileReport {
    /// The program after all passes.
    pub optimized: Stmt,
    /// IR nodes visited across all passes (a deterministic work measure).
    pub node_visits: usize,
    /// Pseudo-instructions emitted by the final lowering pass.
    pub pseudo_instructions: usize,
}

/// Runs the pass pipeline: constant folding → guard simplification →
/// loop-invariant code motion / unswitching → dead code elimination →
/// common-subexpression scan → lowering.
pub fn compile(program: &Stmt) -> CompileReport {
    let _pipeline = omega::span!(pass_pipeline);
    let mut visits = 0usize;
    let folded = {
        let _s = omega::span!(pass_fold);
        fold_stmt(program, &mut visits)
    };
    let simplified = {
        let _s = omega::span!(pass_simplify_guards);
        simplify_guards(&folded, &mut visits)
    };
    let mut next_slot = max_var_slot(&simplified).map_or(0, |v| v + 1);
    let hoisted = {
        let _s = omega::span!(pass_licm);
        licm(&simplified, &mut next_slot, &mut visits)
    };
    let cleaned = {
        let _s = omega::span!(pass_dce);
        dce(&hoisted, &mut visits)
    };
    let cse_work = {
        let _s = omega::span!(pass_cse);
        cse_scan(&cleaned, &mut visits)
    };
    // fold CSE work in deterministically
    let pseudo = {
        let _s = omega::span!(pass_lower);
        lower(&cleaned, &mut visits)
    } + cse_work / 97;
    CompileReport {
        optimized: cleaned,
        node_visits: visits,
        pseudo_instructions: pseudo,
    }
}

/// Highest loop-variable slot used anywhere.
fn max_var_slot(s: &Stmt) -> Option<usize> {
    fn expr_max(e: &Expr) -> Option<usize> {
        match e {
            Expr::Var(v) => Some(*v),
            Expr::Const(_) | Expr::Param(_) => None,
            Expr::Mul(_, a) | Expr::FloorDiv(a, _) | Expr::CeilDiv(a, _) | Expr::Mod(a, _) => {
                expr_max(a)
            }
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Min(a, b) | Expr::Max(a, b) => {
                expr_max(a).max(expr_max(b))
            }
        }
    }
    fn cond_max(c: &Cond) -> Option<usize> {
        c.atoms()
            .iter()
            .filter_map(|a| match a {
                CondAtom::GeqZero(e) | CondAtom::EqZero(e) => expr_max(e),
                CondAtom::ModZero(e, _) | CondAtom::ModLeq(e, _, _) => expr_max(e),
            })
            .max()
    }
    match s {
        Stmt::Seq(items) => items.iter().filter_map(max_var_slot).max(),
        Stmt::Loop {
            var,
            lower,
            upper,
            body,
            ..
        } => [
            Some(*var),
            expr_max(lower),
            expr_max(upper),
            max_var_slot(body),
        ]
        .into_iter()
        .flatten()
        .max(),
        Stmt::If { cond, then_, else_ } => [
            cond_max(cond),
            max_var_slot(then_),
            else_.as_deref().and_then(max_var_slot),
        ]
        .into_iter()
        .flatten()
        .max(),
        Stmt::Assign { var, value, body } => [Some(*var), expr_max(value), max_var_slot(body)]
            .into_iter()
            .flatten()
            .max(),
        Stmt::Call { args, .. } => args.iter().filter_map(expr_max).max(),
        Stmt::Nop => None,
    }
}

/// Renames loop-variable slot `from` to `to` in a subtree (used when
/// hoisting an assignment whose slot is reassigned by a sibling).
fn rename_var(s: &Stmt, from: usize, to: usize) -> Stmt {
    fn re(e: &Expr, from: usize, to: usize) -> Expr {
        match e {
            Expr::Var(v) if *v == from => Expr::Var(to),
            Expr::Const(_) | Expr::Param(_) | Expr::Var(_) => e.clone(),
            Expr::Mul(k, a) => Expr::Mul(*k, Box::new(re(a, from, to))),
            Expr::FloorDiv(a, d) => Expr::FloorDiv(Box::new(re(a, from, to)), *d),
            Expr::CeilDiv(a, d) => Expr::CeilDiv(Box::new(re(a, from, to)), *d),
            Expr::Mod(a, d) => Expr::Mod(Box::new(re(a, from, to)), *d),
            Expr::Add(a, b) => Expr::Add(Box::new(re(a, from, to)), Box::new(re(b, from, to))),
            Expr::Sub(a, b) => Expr::Sub(Box::new(re(a, from, to)), Box::new(re(b, from, to))),
            Expr::Min(a, b) => Expr::Min(Box::new(re(a, from, to)), Box::new(re(b, from, to))),
            Expr::Max(a, b) => Expr::Max(Box::new(re(a, from, to)), Box::new(re(b, from, to))),
        }
    }
    fn rc(c: &Cond, from: usize, to: usize) -> Cond {
        Cond::from_atoms(
            c.atoms()
                .iter()
                .map(|a| match a {
                    CondAtom::GeqZero(e) => CondAtom::GeqZero(re(e, from, to)),
                    CondAtom::EqZero(e) => CondAtom::EqZero(re(e, from, to)),
                    CondAtom::ModZero(e, m) => CondAtom::ModZero(re(e, from, to), *m),
                    CondAtom::ModLeq(e, m, k) => CondAtom::ModLeq(re(e, from, to), *m, *k),
                })
                .collect(),
        )
    }
    match s {
        Stmt::Seq(items) => Stmt::Seq(items.iter().map(|i| rename_var(i, from, to)).collect()),
        Stmt::Loop {
            var,
            lower,
            upper,
            step,
            body,
        } => {
            if *var == from {
                // The slot is rebound here: the binding shadows `from`.
                Stmt::Loop {
                    var: *var,
                    lower: re(lower, from, to),
                    upper: re(upper, from, to),
                    step: *step,
                    body: body.clone(),
                }
            } else {
                Stmt::Loop {
                    var: *var,
                    lower: re(lower, from, to),
                    upper: re(upper, from, to),
                    step: *step,
                    body: Box::new(rename_var(body, from, to)),
                }
            }
        }
        Stmt::If { cond, then_, else_ } => Stmt::If {
            cond: rc(cond, from, to),
            then_: Box::new(rename_var(then_, from, to)),
            else_: else_.as_ref().map(|e| Box::new(rename_var(e, from, to))),
        },
        Stmt::Assign { var, value, body } => {
            if *var == from {
                Stmt::Assign {
                    var: *var,
                    value: re(value, from, to),
                    body: body.clone(),
                }
            } else {
                Stmt::Assign {
                    var: *var,
                    value: re(value, from, to),
                    body: Box::new(rename_var(body, from, to)),
                }
            }
        }
        Stmt::Call { stmt, args } => Stmt::Call {
            stmt: *stmt,
            args: args.iter().map(|a| re(a, from, to)).collect(),
        },
        Stmt::Nop => Stmt::Nop,
    }
}

/// Unswitches the loop over the first top-level `if` in `body` whose
/// condition does not depend on `var`. Returns the specialized `if` with a
/// loop copy in each branch, or `None` if nothing to unswitch. `fuel`
/// bounds the nesting of unswitched conditions (code growth 2^fuel).
fn try_unswitch(
    var: usize,
    lower: &Expr,
    upper: &Expr,
    step: i64,
    body: &Stmt,
    fuel: usize,
) -> Option<Stmt> {
    if fuel == 0 || body.size() > 512 {
        return None;
    }
    let items: Vec<Stmt> = match body {
        Stmt::Seq(v) => v.clone(),
        other => vec![other.clone()],
    };
    // Variables bound inside the body (assignments, inner loops) must not
    // appear in a hoisted condition: they are undefined outside the loop.
    let mut bound = vec![var];
    for i in &items {
        collect_bound_vars(i, &mut bound);
    }
    let pos = items.iter().position(|i| {
        matches!(i, Stmt::If { cond, .. } if cond.atoms().iter().all(|a| {
            let e = match a {
                CondAtom::GeqZero(e) | CondAtom::EqZero(e) => e,
                CondAtom::ModZero(e, _) | CondAtom::ModLeq(e, _, _) => e,
            };
            bound.iter().all(|&b| !e.uses_var(b))
        }))
    })?;
    let Stmt::If { cond, then_, else_ } = items[pos].clone() else {
        unreachable!()
    };
    let mk_loop = |replacement: Stmt| {
        let mut v = items.clone();
        v[pos] = replacement;
        let inner = Stmt::seq(v);
        let looped = Stmt::Loop {
            var,
            lower: lower.clone(),
            upper: upper.clone(),
            step,
            body: Box::new(inner.clone()),
        };
        // Recursively unswitch remaining invariant ifs in this version.
        match try_unswitch(var, lower, upper, step, &inner, fuel - 1) {
            Some(u) => u,
            None => looped,
        }
    };
    let then_loop = mk_loop((*then_).clone());
    let else_loop = mk_loop(else_.map(|e| *e).unwrap_or(Stmt::Nop));
    Some(Stmt::If {
        cond,
        then_: Box::new(then_loop),
        else_: match else_loop {
            Stmt::Nop => None,
            other => Some(Box::new(other)),
        },
    })
}

/// Records every variable slot bound by assignments or loops in a subtree.
fn collect_bound_vars(s: &Stmt, out: &mut Vec<usize>) {
    match s {
        Stmt::Seq(items) => items.iter().for_each(|i| collect_bound_vars(i, out)),
        Stmt::Loop { var, body, .. } => {
            if !out.contains(var) {
                out.push(*var);
            }
            collect_bound_vars(body, out);
        }
        Stmt::If { then_, else_, .. } => {
            collect_bound_vars(then_, out);
            if let Some(e) = else_ {
                collect_bound_vars(e, out);
            }
        }
        Stmt::Assign { var, body, .. } => {
            if !out.contains(var) {
                out.push(*var);
            }
            collect_bound_vars(body, out);
        }
        Stmt::Call { .. } | Stmt::Nop => {}
    }
}

/// Loop-invariant code motion and unswitching, as gcc -O3 would perform:
/// assignments whose value does not depend on the loop variable are hoisted
/// above the loop (renamed to a fresh slot), and a loop whose whole body is
/// an invariant `if` is unswitched.
fn licm(s: &Stmt, next_slot: &mut usize, visits: &mut usize) -> Stmt {
    *visits += 1;
    match s {
        Stmt::Seq(items) => Stmt::seq(items.iter().map(|i| licm(i, next_slot, visits)).collect()),
        Stmt::Loop {
            var,
            lower,
            upper,
            step,
            body,
        } => {
            let body = licm(body, next_slot, visits);
            // Unswitch: a top-level if with a loop-invariant condition is
            // specialized outside the loop (both versions re-optimized),
            // bounded to keep code growth in check — as gcc -O3 does.
            if let Some(unswitched) = try_unswitch(*var, lower, upper, *step, &body, 4) {
                return licm(&unswitched, next_slot, visits);
            }
            // Hoist invariant assignments out of the loop body: scan the
            // top-level items; each invariant `Assign` is renamed to a
            // fresh slot and moved above the loop.
            let mut wrappers: Vec<(usize, Expr)> = Vec::new();
            let items: Vec<Stmt> = match body {
                Stmt::Seq(v) => v,
                other => vec![other],
            };
            let mut new_items = Vec::with_capacity(items.len());
            for item in items {
                if let Stmt::Assign {
                    var: x,
                    value,
                    body: inner,
                } = &item
                {
                    if !value.uses_var(*var) && x != var {
                        let fresh = *next_slot;
                        *next_slot += 1;
                        wrappers.push((fresh, value.clone()));
                        new_items.push(rename_var(inner, *x, fresh));
                        continue;
                    }
                }
                new_items.push(item);
            }
            let new_body = Stmt::seq(new_items);
            // Hoisting may have exposed invariant ifs: retry unswitching.
            let mut out = match try_unswitch(*var, lower, upper, *step, &new_body, 4) {
                Some(u) => licm(&u, next_slot, visits),
                None => Stmt::Loop {
                    var: *var,
                    lower: lower.clone(),
                    upper: upper.clone(),
                    step: *step,
                    body: Box::new(new_body),
                },
            };
            for (slot, value) in wrappers.into_iter().rev() {
                out = Stmt::Assign {
                    var: slot,
                    value,
                    body: Box::new(out),
                };
            }
            out
        }
        Stmt::If { cond, then_, else_ } => Stmt::If {
            cond: cond.clone(),
            then_: Box::new(licm(then_, next_slot, visits)),
            else_: else_.as_ref().map(|e| Box::new(licm(e, next_slot, visits))),
        },
        Stmt::Assign { var, value, body } => Stmt::Assign {
            var: *var,
            value: value.clone(),
            body: Box::new(licm(body, next_slot, visits)),
        },
        other => other.clone(),
    }
}

/// Constant folding over expressions.
pub fn fold_expr(e: &Expr) -> Expr {
    match e {
        Expr::Const(_) | Expr::Param(_) | Expr::Var(_) => e.clone(),
        Expr::Add(a, b) => Expr::add(fold_expr(a), fold_expr(b)),
        Expr::Sub(a, b) => Expr::sub(fold_expr(a), fold_expr(b)),
        Expr::Mul(k, a) => Expr::mul(*k, fold_expr(a)),
        Expr::Min(a, b) => match (fold_expr(a), fold_expr(b)) {
            (Expr::Const(x), Expr::Const(y)) => Expr::Const(x.min(y)),
            (x, y) => Expr::min2(x, y),
        },
        Expr::Max(a, b) => match (fold_expr(a), fold_expr(b)) {
            (Expr::Const(x), Expr::Const(y)) => Expr::Const(x.max(y)),
            (x, y) => Expr::max2(x, y),
        },
        Expr::FloorDiv(a, d) => match fold_expr(a) {
            Expr::Const(x) => Expr::Const(floor_div(x, *d)),
            x => Expr::FloorDiv(Box::new(x), *d),
        },
        Expr::CeilDiv(a, d) => match fold_expr(a) {
            Expr::Const(x) => Expr::Const(ceil_div(x, *d)),
            x => Expr::CeilDiv(Box::new(x), *d),
        },
        Expr::Mod(a, d) => match fold_expr(a) {
            Expr::Const(x) => Expr::Const(x - floor_div(x, *d) * *d),
            x => Expr::Mod(Box::new(x), *d),
        },
    }
}

fn fold_stmt(s: &Stmt, visits: &mut usize) -> Stmt {
    *visits += 1;
    match s {
        Stmt::Seq(items) => Stmt::seq(items.iter().map(|i| fold_stmt(i, visits)).collect()),
        Stmt::Loop {
            var,
            lower,
            upper,
            step,
            body,
        } => Stmt::Loop {
            var: *var,
            lower: fold_expr(lower),
            upper: fold_expr(upper),
            step: *step,
            body: Box::new(fold_stmt(body, visits)),
        },
        Stmt::If { cond, then_, else_ } => Stmt::If {
            cond: Cond::from_atoms(
                cond.atoms()
                    .iter()
                    .map(|a| match a {
                        CondAtom::GeqZero(e) => CondAtom::GeqZero(fold_expr(e)),
                        CondAtom::EqZero(e) => CondAtom::EqZero(fold_expr(e)),
                        CondAtom::ModZero(e, m) => CondAtom::ModZero(fold_expr(e), *m),
                        CondAtom::ModLeq(e, m, k) => CondAtom::ModLeq(fold_expr(e), *m, *k),
                    })
                    .collect(),
            ),
            then_: Box::new(fold_stmt(then_, visits)),
            else_: else_.as_ref().map(|e| Box::new(fold_stmt(e, visits))),
        },
        Stmt::Assign { var, value, body } => Stmt::Assign {
            var: *var,
            value: fold_expr(value),
            body: Box::new(fold_stmt(body, visits)),
        },
        Stmt::Call { stmt, args } => Stmt::Call {
            stmt: *stmt,
            args: args.iter().map(fold_expr).collect(),
        },
        Stmt::Nop => Stmt::Nop,
    }
}

/// Drops condition atoms that are statically true and whole branches that
/// are statically false (after folding, atoms over constants resolve).
fn simplify_guards(s: &Stmt, visits: &mut usize) -> Stmt {
    *visits += 1;
    match s {
        Stmt::Seq(items) => Stmt::seq(items.iter().map(|i| simplify_guards(i, visits)).collect()),
        Stmt::Loop {
            var,
            lower,
            upper,
            step,
            body,
        } => Stmt::Loop {
            var: *var,
            lower: lower.clone(),
            upper: upper.clone(),
            step: *step,
            body: Box::new(simplify_guards(body, visits)),
        },
        Stmt::If { cond, then_, else_ } => {
            let mut atoms = Vec::new();
            let mut statically_false = false;
            for a in cond.atoms() {
                match a {
                    CondAtom::GeqZero(Expr::Const(c)) => {
                        if *c < 0 {
                            statically_false = true;
                        }
                    }
                    CondAtom::EqZero(Expr::Const(c)) => {
                        if *c != 0 {
                            statically_false = true;
                        }
                    }
                    CondAtom::ModZero(Expr::Const(c), m) => {
                        if c.rem_euclid(*m) != 0 {
                            statically_false = true;
                        }
                    }
                    CondAtom::ModLeq(Expr::Const(c), m, k) => {
                        if c.rem_euclid(*m) > *k {
                            statically_false = true;
                        }
                    }
                    other => atoms.push(other.clone()),
                }
            }
            let t = simplify_guards(then_, visits);
            let e = else_.as_ref().map(|e| simplify_guards(e, visits));
            if statically_false {
                return e.unwrap_or(Stmt::Nop);
            }
            if atoms.is_empty() {
                return t;
            }
            Stmt::If {
                cond: Cond::from_atoms(atoms),
                then_: Box::new(t),
                else_: e.map(Box::new),
            }
        }
        Stmt::Assign { var, value, body } => Stmt::Assign {
            var: *var,
            value: value.clone(),
            body: Box::new(simplify_guards(body, visits)),
        },
        other => other.clone(),
    }
}

/// Removes empty loops / branches.
fn dce(s: &Stmt, visits: &mut usize) -> Stmt {
    *visits += 1;
    match s {
        Stmt::Seq(items) => Stmt::seq(items.iter().map(|i| dce(i, visits)).collect()),
        Stmt::Loop {
            var,
            lower,
            upper,
            step,
            body,
        } => {
            let b = dce(body, visits);
            if matches!(b, Stmt::Nop) {
                Stmt::Nop
            } else {
                Stmt::Loop {
                    var: *var,
                    lower: lower.clone(),
                    upper: upper.clone(),
                    step: *step,
                    body: Box::new(b),
                }
            }
        }
        Stmt::If { cond, then_, else_ } => {
            let t = dce(then_, visits);
            let e = else_.as_ref().map(|e| dce(e, visits));
            let e = match e {
                Some(Stmt::Nop) => None,
                other => other,
            };
            if matches!(t, Stmt::Nop) && e.is_none() {
                Stmt::Nop
            } else {
                Stmt::If {
                    cond: cond.clone(),
                    then_: Box::new(t),
                    else_: e.map(Box::new),
                }
            }
        }
        Stmt::Assign { var, value, body } => {
            let b = dce(body, visits);
            if matches!(b, Stmt::Nop) {
                Stmt::Nop
            } else {
                Stmt::Assign {
                    var: *var,
                    value: value.clone(),
                    body: Box::new(b),
                }
            }
        }
        other => other.clone(),
    }
}

/// Counts pairwise-identical subexpressions within each loop body — a
/// deliberately quadratic analysis standing in for the superlinear parts of
/// a real optimizer. Returns a work measure.
fn cse_scan(s: &Stmt, visits: &mut usize) -> usize {
    fn collect<'a>(s: &'a Stmt, exprs: &mut Vec<&'a Expr>) {
        match s {
            Stmt::Seq(items) => items.iter().for_each(|i| collect(i, exprs)),
            Stmt::Loop {
                lower, upper, body, ..
            } => {
                exprs.push(lower);
                exprs.push(upper);
                collect(body, exprs);
            }
            Stmt::If { cond, then_, else_ } => {
                for a in cond.atoms() {
                    match a {
                        CondAtom::GeqZero(e)
                        | CondAtom::EqZero(e)
                        | CondAtom::ModZero(e, _)
                        | CondAtom::ModLeq(e, _, _) => exprs.push(e),
                    }
                }
                collect(then_, exprs);
                if let Some(e) = else_ {
                    collect(e, exprs);
                }
            }
            Stmt::Assign { value, body, .. } => {
                exprs.push(value);
                collect(body, exprs);
            }
            Stmt::Call { args, .. } => exprs.extend(args.iter()),
            Stmt::Nop => {}
        }
    }
    let mut exprs = Vec::new();
    collect(s, &mut exprs);
    let mut work = 0usize;
    for i in 0..exprs.len() {
        for j in (i + 1)..exprs.len() {
            *visits += 1;
            if exprs[i] == exprs[j] {
                work += exprs[i].size();
            }
        }
    }
    work
}

/// Final lowering: pseudo-instruction count.
fn lower(s: &Stmt, visits: &mut usize) -> usize {
    *visits += 1;
    match s {
        Stmt::Seq(items) => items.iter().map(|i| lower(i, visits)).sum(),
        Stmt::Loop {
            lower: lo,
            upper,
            body,
            ..
        } => 3 + lo.size() + upper.size() + lower(body, visits),
        Stmt::If { cond, then_, else_ } => {
            1 + cond.size()
                + lower(then_, visits)
                + else_.as_ref().map(|e| lower(e, visits)).unwrap_or(0)
        }
        Stmt::Assign { value, body, .. } => 1 + value.size() + lower(body, visits),
        Stmt::Call { args, .. } => 1 + args.iter().map(Expr::size).sum::<usize>(),
        Stmt::Nop => 0,
    }
}

fn floor_div(a: i64, b: i64) -> i64 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

fn ceil_div(a: i64, b: i64) -> i64 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) == (b < 0)) {
        q + 1
    } else {
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folding_collapses_constants() {
        let e = Expr::Add(
            Box::new(Expr::Mul(2, Box::new(Expr::Const(3)))),
            Box::new(Expr::Const(4)),
        );
        assert_eq!(fold_expr(&e), Expr::Const(10));
        let e = Expr::Min(Box::new(Expr::Const(3)), Box::new(Expr::Const(7)));
        assert_eq!(fold_expr(&e), Expr::Const(3));
        let e = Expr::Mod(Box::new(Expr::Const(-1)), 4);
        assert_eq!(fold_expr(&e), Expr::Const(3));
    }

    #[test]
    fn statically_false_guard_removed() {
        let s = Stmt::If {
            cond: Cond::atom(CondAtom::GeqZero(Expr::Const(-1))),
            then_: Box::new(Stmt::Call {
                stmt: 0,
                args: vec![],
            }),
            else_: Some(Box::new(Stmt::Call {
                stmt: 1,
                args: vec![],
            })),
        };
        let r = compile(&s);
        assert_eq!(
            r.optimized,
            Stmt::Call {
                stmt: 1,
                args: vec![]
            }
        );
    }

    #[test]
    fn statically_true_guard_dropped() {
        let s = Stmt::If {
            cond: Cond::atom(CondAtom::ModZero(Expr::Const(8), 4)),
            then_: Box::new(Stmt::Call {
                stmt: 0,
                args: vec![],
            }),
            else_: None,
        };
        let r = compile(&s);
        assert_eq!(
            r.optimized,
            Stmt::Call {
                stmt: 0,
                args: vec![]
            }
        );
    }

    #[test]
    fn empty_loop_eliminated() {
        let s = Stmt::Loop {
            var: 0,
            lower: Expr::Const(0),
            upper: Expr::Const(9),
            step: 1,
            body: Box::new(Stmt::Nop),
        };
        let r = compile(&s);
        assert_eq!(r.optimized, Stmt::Nop);
    }

    #[test]
    fn work_scales_with_size() {
        fn nest(depth: usize) -> Stmt {
            if depth == 0 {
                return Stmt::Call {
                    stmt: 0,
                    args: vec![Expr::Var(0), Expr::Var(1)],
                };
            }
            Stmt::Loop {
                var: depth - 1,
                lower: Expr::Const(0),
                upper: Expr::Param(0),
                step: 1,
                body: Box::new(nest(depth - 1)),
            }
        }
        let small = compile(&Stmt::seq(vec![nest(2)]));
        let big = compile(&Stmt::seq((0..20).map(|_| nest(2)).collect()));
        assert!(big.node_visits > small.node_visits * 10);
        assert!(big.pseudo_instructions > small.pseudo_instructions * 10);
    }
}
