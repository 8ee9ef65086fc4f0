//! Dev tool: scan seeds and count violations of candidate monotone
//! properties, to pick assertions with no false positives.
//! `cargo run --release -p difftest --example property_scan -- 2000`

use codegenplus::diff::generate_for;
use difftest::gen::gen_case;
use polyir::{Cond, CondAtom, Expr, Stmt};

fn expr_has_mod(e: &Expr) -> bool {
    match e {
        Expr::Const(_) | Expr::Param(_) | Expr::Var(_) => false,
        Expr::Mul(_, a) | Expr::FloorDiv(a, _) | Expr::CeilDiv(a, _) | Expr::Mod(a, _) => {
            matches!(e, Expr::Mod(..) | Expr::FloorDiv(..) | Expr::CeilDiv(..)) || expr_has_mod(a)
        }
        Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Min(a, b) | Expr::Max(a, b) => {
            expr_has_mod(a) || expr_has_mod(b)
        }
    }
}

fn cond_is_modular(c: &Cond) -> bool {
    c.atoms().iter().any(|a| match a {
        CondAtom::ModZero(..) | CondAtom::ModLeq(..) => true,
        CondAtom::GeqZero(e) | CondAtom::EqZero(e) => expr_has_mod(e),
    })
}

fn expr_has_var(e: &Expr) -> bool {
    match e {
        Expr::Var(_) => true,
        Expr::Const(_) | Expr::Param(_) => false,
        Expr::Mul(_, a) | Expr::FloorDiv(a, _) | Expr::CeilDiv(a, _) | Expr::Mod(a, _) => {
            expr_has_var(a)
        }
        Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Min(a, b) | Expr::Max(a, b) => {
            expr_has_var(a) || expr_has_var(b)
        }
    }
}

fn stmt_has_mod(s: &Stmt) -> bool {
    match s {
        Stmt::Seq(items) => items.iter().any(stmt_has_mod),
        Stmt::Loop {
            lower, upper, body, ..
        } => expr_has_mod(lower) || expr_has_mod(upper) || stmt_has_mod(body),
        Stmt::If { cond, then_, else_ } => {
            cond_is_modular(cond)
                || stmt_has_mod(then_)
                || else_.as_deref().map(stmt_has_mod).unwrap_or(false)
        }
        Stmt::Assign { value, body, .. } => expr_has_mod(value) || stmt_has_mod(body),
        Stmt::Call { args, .. } => args.iter().any(expr_has_mod),
        Stmt::Nop => false,
    }
}

fn cond_is_param_only(c: &Cond) -> bool {
    c.atoms().iter().all(|a| match a {
        CondAtom::ModZero(e, _) | CondAtom::ModLeq(e, _, _) => !expr_has_var(e),
        CondAtom::GeqZero(e) | CondAtom::EqZero(e) => !expr_has_var(e),
    })
}

/// In-loop ifs whose condition mentions no loop variable at all.
fn param_ifs_inside_loops(s: &Stmt, inside: bool) -> usize {
    match s {
        Stmt::Seq(items) => items
            .iter()
            .map(|i| param_ifs_inside_loops(i, inside))
            .sum(),
        Stmt::Loop { body, .. } => param_ifs_inside_loops(body, true),
        Stmt::Assign { body, .. } => param_ifs_inside_loops(body, inside),
        Stmt::If { cond, then_, else_ } => {
            usize::from(inside && cond_is_param_only(cond))
                + param_ifs_inside_loops(then_, inside)
                + else_
                    .as_ref()
                    .map(|e| param_ifs_inside_loops(e, inside))
                    .unwrap_or(0)
        }
        Stmt::Call { .. } | Stmt::Nop => 0,
    }
}

/// In-loop ifs whose condition is purely affine (no stride residue).
fn affine_ifs_inside_loops(s: &Stmt, inside: bool) -> usize {
    match s {
        Stmt::Seq(items) => items
            .iter()
            .map(|i| affine_ifs_inside_loops(i, inside))
            .sum(),
        Stmt::Loop { body, .. } => affine_ifs_inside_loops(body, true),
        Stmt::Assign { body, .. } => affine_ifs_inside_loops(body, inside),
        Stmt::If { cond, then_, else_ } => {
            usize::from(inside && !cond_is_modular(cond))
                + affine_ifs_inside_loops(then_, inside)
                + else_
                    .as_ref()
                    .map(|e| affine_ifs_inside_loops(e, inside))
                    .unwrap_or(0)
        }
        Stmt::Call { .. } | Stmt::Nop => 0,
    }
}

fn main() {
    let n: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(500);
    let mut static_ifs_adj = 0u64; // ifs_inside_loops non-increasing (adjacent)
    let mut static_ifs_end = 0u64; // endpoint: max effort <= effort 0
    let mut lines_adj = 0u64; // lines non-decreasing (adjacent)
    let mut dyn_branch_adj = 0u64; // branch_tests non-increasing (adjacent)
    let mut dyn_branch_end = 0u64;
    let mut dyn_branch_slack = 0u64; // branch_tests(e+1) <= branch_tests(e) + lines(e+1) slack
    let mut affine_residue = 0u64; // affine in-loop ifs remain at max effort
    let mut param_residue = 0u64; // param-only in-loop ifs remain at max effort
    let mut modfree_cases = 0u64;
    let mut mf_static_adj = 0u64;
    let mut mf_affine_residue = 0u64;
    let mut mf_param_residue = 0u64;
    let mut convex_cases = 0u64;
    let mut cx_static_adj = 0u64;
    let mut cx_residue = 0u64;
    let mut checked = 0u64;
    for seed in 0..n {
        let case = gen_case(seed);
        let stmts = case.statements();
        let nv = case.space.n_vars();
        let mut gens = Vec::new();
        let mut ok = true;
        for effort in 0..=nv {
            match generate_for(&stmts, effort) {
                Ok(g) => gens.push(g),
                Err(_) => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            continue;
        }
        checked += 1;
        let modfree = gens.iter().all(|g| !stmt_has_mod(&g.code));
        if modfree {
            modfree_cases += 1;
        }
        let convex = case.stmts.len() == 1
            && case.stmts[0].conjuncts.len() == 1
            && case.stmts[0].conjuncts[0].congruences.is_empty();
        if convex {
            convex_cases += 1;
        }
        let metrics: Vec<_> = gens.iter().map(|g| g.metrics()).collect();
        let runs: Vec<_> = gens
            .iter()
            .map(|g| g.execute(&case.params).expect("exec"))
            .collect();
        for w in 0..gens.len() - 1 {
            let (a, b) = (&metrics[w], &metrics[w + 1]);
            if b.ifs_inside_loops > a.ifs_inside_loops {
                static_ifs_adj += 1;
                if modfree {
                    mf_static_adj += 1;
                }
            }
            if b.lines < a.lines {
                lines_adj += 1;
            }
            let (ca, cb) = (&runs[w].counters, &runs[w + 1].counters);
            if cb.branch_tests > ca.branch_tests {
                dyn_branch_adj += 1;
            }
            if cb.branch_tests > ca.branch_tests + b.lines as u64 {
                dyn_branch_slack += 1;
            }
        }
        let (m0, ml) = (&metrics[0], &metrics[metrics.len() - 1]);
        if ml.ifs_inside_loops > m0.ifs_inside_loops {
            static_ifs_end += 1;
        }
        if runs[runs.len() - 1].counters.branch_tests > runs[0].counters.branch_tests {
            dyn_branch_end += 1;
        }
        let residue = affine_ifs_inside_loops(&gens[gens.len() - 1].code, false);
        if residue > 0 {
            affine_residue += 1;
        }
        let presidue = param_ifs_inside_loops(&gens[gens.len() - 1].code, false);
        if presidue > 0 {
            param_residue += 1;
        }
        if modfree {
            if residue > 0 {
                mf_affine_residue += 1;
            }
            if presidue > 0 {
                mf_param_residue += 1;
            }
        }
        if convex {
            let mall = gens[gens.len() - 1].metrics();
            if mall.ifs_inside_loops > 0 {
                cx_residue += 1;
                if cx_residue <= 3 {
                    println!(
                        "seed {seed}: CONVEX {} in-loop ifs at max effort:\n{}",
                        mall.ifs_inside_loops,
                        gens[gens.len() - 1].to_c()
                    );
                }
            }
            for w in 0..metrics.len() - 1 {
                if metrics[w + 1].ifs_inside_loops > metrics[w].ifs_inside_loops {
                    cx_static_adj += 1;
                    if cx_static_adj <= 3 {
                        println!(
                            "seed {seed}: CONVEX static rise effort {w}->{}:\n--- effort {w}\n{}\n--- effort {}\n{}",
                            w + 1,
                            gens[w].to_c(),
                            w + 1,
                            gens[w + 1].to_c()
                        );
                    }
                }
            }
        }
    }
    println!("checked {checked}/{n} generatable cases");
    println!("static ifs_inside_loops adjacent violations: {static_ifs_adj}");
    println!("static ifs_inside_loops endpoint violations: {static_ifs_end}");
    println!("lines adjacent (shrinking) violations:       {lines_adj}");
    println!("dynamic branch_tests adjacent violations:    {dyn_branch_adj}");
    println!("dynamic branch_tests endpoint violations:    {dyn_branch_end}");
    println!("dynamic branch_tests slack violations:       {dyn_branch_slack}");
    println!("affine in-loop if residue at max effort:     {affine_residue}");
    println!("param-only in-loop if residue at max effort: {param_residue}");
    println!("mod-free cases: {modfree_cases}");
    println!("  mod-free static ifs adjacent violations:   {mf_static_adj}");
    println!("  mod-free affine residue at max effort:     {mf_affine_residue}");
    println!("  mod-free param-only residue at max effort: {mf_param_residue}");
    println!("convex stride-free cases: {convex_cases}");
    println!("  convex static ifs adjacent violations:     {cx_static_adj}");
    println!("  convex in-loop residue at max effort:      {cx_residue}");
}
