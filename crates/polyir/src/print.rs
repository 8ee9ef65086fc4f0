//! C-like pretty printing of generated code. Lines of generated code are a
//! headline metric of the paper's Table 1, so the printer is deliberately
//! close to what CLooG/CodeGen+ emit.

use crate::expr::{Cond, CondAtom, Expr};
use crate::stmt::Stmt;

/// Naming environment for the printer.
#[derive(Clone, Debug, Default)]
pub struct Names {
    /// Parameter names by index (defaults to `n0`, `n1`, …).
    pub params: Vec<String>,
    /// Loop-variable names by slot (defaults to `t1`, `t2`, …).
    pub vars: Vec<String>,
    /// Statement names by id (defaults to `s0`, `s1`, …).
    pub stmts: Vec<String>,
}

impl Names {
    /// Parameter name for index `i`.
    pub fn param(&self, i: usize) -> String {
        self.params
            .get(i)
            .cloned()
            .unwrap_or_else(|| format!("n{i}"))
    }

    /// Loop-variable name for slot `i` (1-based `tK` by default, matching
    /// the paper's generated code).
    pub fn var(&self, i: usize) -> String {
        self.vars
            .get(i)
            .cloned()
            .unwrap_or_else(|| format!("t{}", i + 1))
    }

    /// Statement name for id `i`.
    pub fn stmt(&self, i: usize) -> String {
        self.stmts
            .get(i)
            .cloned()
            .unwrap_or_else(|| format!("s{i}"))
    }
}

/// Renders an expression.
pub fn expr_to_string(e: &Expr, names: &Names) -> String {
    prec_print(e, names, 0)
}

fn prec_print(e: &Expr, names: &Names, parent: u8) -> String {
    // precedence: 0 add/sub, 1 mul, 2 atom
    match e {
        Expr::Const(c) => {
            if *c < 0 && parent > 0 {
                format!("({c})")
            } else {
                format!("{c}")
            }
        }
        Expr::Param(i) => names.param(*i),
        Expr::Var(i) => names.var(*i),
        Expr::Add(a, b) => {
            let s = match b.as_ref() {
                Expr::Const(c) if *c < 0 => {
                    format!("{}-{}", prec_print(a, names, 0), -c)
                }
                Expr::Mul(k, e) if *k < 0 => {
                    format!(
                        "{}-{}",
                        prec_print(a, names, 0),
                        prec_print(&Expr::Mul(-k, e.clone()), names, 1)
                    )
                }
                _ => format!("{}+{}", prec_print(a, names, 0), prec_print(b, names, 0)),
            };
            if parent > 0 {
                format!("({s})")
            } else {
                s
            }
        }
        Expr::Sub(a, b) => {
            let s = format!("{}-{}", prec_print(a, names, 0), prec_print(b, names, 1));
            if parent > 0 {
                format!("({s})")
            } else {
                s
            }
        }
        Expr::Mul(k, a) => {
            let s = format!("{}*{}", k, prec_print(a, names, 1));
            if parent > 1 {
                format!("({s})")
            } else {
                s
            }
        }
        Expr::Min(a, b) => format!(
            "min({},{})",
            prec_print(a, names, 0),
            prec_print(b, names, 0)
        ),
        Expr::Max(a, b) => format!(
            "max({},{})",
            prec_print(a, names, 0),
            prec_print(b, names, 0)
        ),
        Expr::FloorDiv(a, d) => format!("floord({},{})", prec_print(a, names, 0), d),
        Expr::CeilDiv(a, d) => format!("ceild({},{})", prec_print(a, names, 0), d),
        Expr::Mod(a, d) => format!("({})%{}", prec_print(a, names, 0), d),
    }
}

/// Renders a condition.
pub fn cond_to_string(c: &Cond, names: &Names) -> String {
    if c.is_always() {
        return "1".to_owned();
    }
    c.atoms()
        .iter()
        .map(|a| atom_to_string(a, names))
        .collect::<Vec<_>>()
        .join(" && ")
}

fn atom_to_string(a: &CondAtom, names: &Names) -> String {
    match a {
        CondAtom::GeqZero(e) => render_comparison(e, names),
        CondAtom::EqZero(e) => format!("{} == 0", prec_print(e, names, 0)),
        CondAtom::ModZero(e, m) => format!("{}%{} == 0", paren(e, names), m),
        CondAtom::ModLeq(e, m, k) => format!("{}%{} <= {}", paren(e, names), m, k),
    }
}

fn paren(e: &Expr, names: &Names) -> String {
    match e {
        Expr::Var(_) | Expr::Param(_) | Expr::Const(_) => prec_print(e, names, 0),
        _ => format!("({})", prec_print(e, names, 0)),
    }
}

/// Renders `e >= 0` in the friendlier `lhs >= rhs` / `lhs <= rhs` forms.
fn render_comparison(e: &Expr, names: &Names) -> String {
    match e {
        Expr::Sub(a, b) => format!("{} >= {}", prec_print(a, names, 0), prec_print(b, names, 0)),
        Expr::Add(a, b) => {
            if let Expr::Const(c) = b.as_ref() {
                // `-k·x + c >= 0` reads better as `k·x <= c`.
                if let Expr::Mul(k, x) = a.as_ref() {
                    if *k < 0 {
                        let lhs = if *k == -1 {
                            prec_print(x, names, 1)
                        } else {
                            format!("{}*{}", -k, prec_print(x, names, 1))
                        };
                        return format!("{lhs} <= {c}");
                    }
                }
                return format!("{} >= {}", prec_print(a, names, 0), -c);
            }
            format!("{} >= 0", prec_print(e, names, 0))
        }
        Expr::Mul(k, x) if *k < 0 => {
            let lhs = if *k == -1 {
                prec_print(x, names, 1)
            } else {
                format!("{}*{}", -k, prec_print(x, names, 1))
            };
            format!("{lhs} <= 0")
        }
        _ => format!("{} >= 0", prec_print(e, names, 0)),
    }
}

/// Pretty-prints a full program as C-like text.
pub fn to_c(stmt: &Stmt, names: &Names) -> String {
    let mut out = String::new();
    print_stmt(stmt, names, 0, &mut out);
    out
}

/// Number of non-empty lines of the C rendering — the paper's
/// "lines of generated code" metric.
pub fn lines_of_code(stmt: &Stmt, names: &Names) -> usize {
    lines_of_text(&to_c(stmt, names))
}

/// Number of non-empty lines of already-rendered C text: equal to
/// [`lines_of_code`] on the [`to_c`] output, without rendering again.
pub fn lines_of_text(c: &str) -> usize {
    c.lines().filter(|l| !l.trim().is_empty()).count()
}

fn indent(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn print_stmt(s: &Stmt, names: &Names, depth: usize, out: &mut String) {
    match s {
        Stmt::Seq(items) => {
            for i in items {
                print_stmt(i, names, depth, out);
            }
        }
        Stmt::Loop {
            var,
            lower,
            upper,
            step,
            body,
        } => {
            indent(depth, out);
            let v = names.var(*var);
            let inc = if *step == 1 {
                format!("{v}++")
            } else {
                format!("{v}+={step}")
            };
            out.push_str(&format!(
                "for ({v}={}; {v}<={}; {inc}) {{\n",
                expr_to_string(lower, names),
                expr_to_string(upper, names)
            ));
            print_stmt(body, names, depth + 1, out);
            indent(depth, out);
            out.push_str("}\n");
        }
        Stmt::If { cond, then_, else_ } => {
            indent(depth, out);
            out.push_str(&format!("if ({}) {{\n", cond_to_string(cond, names)));
            print_stmt(then_, names, depth + 1, out);
            indent(depth, out);
            out.push_str("}\n");
            if let Some(e) = else_ {
                indent(depth, out);
                out.push_str("else {\n");
                print_stmt(e, names, depth + 1, out);
                indent(depth, out);
                out.push_str("}\n");
            }
        }
        Stmt::Assign { var, value, body } => {
            indent(depth, out);
            out.push_str(&format!(
                "{} = {};\n",
                names.var(*var),
                expr_to_string(value, names)
            ));
            print_stmt(body, names, depth, out);
        }
        Stmt::Call { stmt, args } => {
            indent(depth, out);
            let rendered: Vec<String> = args.iter().map(|a| expr_to_string(a, names)).collect();
            out.push_str(&format!("{}({});\n", names.stmt(*stmt), rendered.join(",")));
        }
        Stmt::Nop => {}
    }
}

/// Renders a complete, compilable C translation unit around the generated
/// loop nest: parameters become function arguments, loop variables are
/// declared, and statement instances become macro invocations the user
/// defines. This is the output a downstream user would paste into a real
/// build.
///
/// # Examples
///
/// ```
/// use polyir::{Expr, Stmt, Names, print::to_c_program};
/// let prog = Stmt::Loop {
///     var: 0,
///     lower: Expr::Const(0),
///     upper: Expr::sub(Expr::Param(0), Expr::Const(1)),
///     step: 1,
///     body: Box::new(Stmt::Call { stmt: 0, args: vec![Expr::Var(0)] }),
/// };
/// let names = Names { params: vec!["n".into()], vars: vec![], stmts: vec![] };
/// let c = to_c_program(&prog, &names, "scan");
/// assert!(c.contains("void scan(long n)"));
/// assert!(c.contains("#ifndef s0"));
/// ```
pub fn to_c_program(stmt: &Stmt, names: &Names, fn_name: &str) -> String {
    let mut out = String::new();
    out.push_str("#include <stdlib.h>\n\n");
    out.push_str("#define floord(a,b) ((long)floor((double)(a)/(double)(b)))\n");
    out.push_str("#define ceild(a,b) ((long)ceil((double)(a)/(double)(b)))\n");
    out.push_str("#define min(a,b) ((a)<(b)?(a):(b))\n");
    out.push_str("#define max(a,b) ((a)>(b)?(a):(b))\n");
    out.push_str("#include <math.h>\n\n");
    // Default statement macros so the file compiles out of the box.
    let mut stmts_used = Vec::new();
    collect_stmts(stmt, &mut stmts_used);
    for s in &stmts_used {
        let name = names.stmt(*s);
        out.push_str(&format!(
            "#ifndef {name}\n#define {name}(...) /* statement body */\n#endif\n"
        ));
    }
    out.push('\n');
    let params: Vec<String> = (0..count_params(stmt))
        .map(|p| format!("long {}", names.param(p)))
        .collect();
    out.push_str(&format!(
        "void {fn_name}({}) {{\n",
        if params.is_empty() {
            "void".to_owned()
        } else {
            params.join(", ")
        }
    ));
    let mut vars = Vec::new();
    collect_vars(stmt, &mut vars);
    vars.sort_unstable();
    if !vars.is_empty() {
        let decls: Vec<String> = vars.iter().map(|&v| names.var(v)).collect();
        out.push_str(&format!("  long {};\n", decls.join(", ")));
    }
    let mut body = String::new();
    print_stmt(stmt, names, 1, &mut body);
    out.push_str(&body);
    out.push_str("}\n");
    out
}

fn collect_stmts(s: &Stmt, out: &mut Vec<usize>) {
    match s {
        Stmt::Seq(items) => items.iter().for_each(|i| collect_stmts(i, out)),
        Stmt::Loop { body, .. } | Stmt::Assign { body, .. } => collect_stmts(body, out),
        Stmt::If { then_, else_, .. } => {
            collect_stmts(then_, out);
            if let Some(e) = else_ {
                collect_stmts(e, out);
            }
        }
        Stmt::Call { stmt, .. } => {
            if !out.contains(stmt) {
                out.push(*stmt);
            }
        }
        Stmt::Nop => {}
    }
}

fn collect_vars(s: &Stmt, out: &mut Vec<usize>) {
    let mut push = |v: usize| {
        if !out.contains(&v) {
            out.push(v);
        }
    };
    match s {
        Stmt::Seq(items) => items.iter().for_each(|i| collect_vars(i, out)),
        Stmt::Loop { var, body, .. } => {
            push(*var);
            collect_vars(body, out);
        }
        Stmt::Assign { var, body, .. } => {
            push(*var);
            collect_vars(body, out);
        }
        Stmt::If { then_, else_, .. } => {
            collect_vars(then_, out);
            if let Some(e) = else_ {
                collect_vars(e, out);
            }
        }
        Stmt::Call { .. } | Stmt::Nop => {}
    }
}

fn count_params(s: &Stmt) -> usize {
    fn expr_max(e: &Expr) -> usize {
        match e {
            Expr::Param(p) => p + 1,
            Expr::Const(_) | Expr::Var(_) => 0,
            Expr::Mul(_, a) | Expr::FloorDiv(a, _) | Expr::CeilDiv(a, _) | Expr::Mod(a, _) => {
                expr_max(a)
            }
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Min(a, b) | Expr::Max(a, b) => {
                expr_max(a).max(expr_max(b))
            }
        }
    }
    fn cond_max(c: &Cond) -> usize {
        c.atoms()
            .iter()
            .map(|a| match a {
                CondAtom::GeqZero(e) | CondAtom::EqZero(e) => expr_max(e),
                CondAtom::ModZero(e, _) | CondAtom::ModLeq(e, _, _) => expr_max(e),
            })
            .max()
            .unwrap_or(0)
    }
    match s {
        Stmt::Seq(items) => items.iter().map(count_params).max().unwrap_or(0),
        Stmt::Loop {
            lower, upper, body, ..
        } => expr_max(lower).max(expr_max(upper)).max(count_params(body)),
        Stmt::If { cond, then_, else_ } => cond_max(cond)
            .max(count_params(then_))
            .max(else_.as_deref().map(count_params).unwrap_or(0)),
        Stmt::Assign { value, body, .. } => expr_max(value).max(count_params(body)),
        Stmt::Call { args, .. } => args.iter().map(expr_max).max().unwrap_or(0),
        Stmt::Nop => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_rendering() {
        let n = Names::default();
        let e = Expr::add(Expr::mul(2, Expr::Var(0)), Expr::Const(-3));
        assert_eq!(expr_to_string(&e, &n), "2*t1-3");
        let e = Expr::min2(Expr::Param(0), Expr::Var(1));
        assert_eq!(expr_to_string(&e, &n), "min(n0,t2)");
        let e = Expr::FloorDiv(Box::new(Expr::Param(0)), 4);
        assert_eq!(expr_to_string(&e, &n), "floord(n0,4)");
    }

    #[test]
    fn loop_rendering_matches_paper_style() {
        let n = Names {
            params: vec!["n".into()],
            vars: vec![],
            stmts: vec![],
        };
        let body = Stmt::Call {
            stmt: 0,
            args: vec![Expr::Var(0)],
        };
        let l = Stmt::Loop {
            var: 0,
            lower: Expr::Const(1),
            upper: Expr::Const(100),
            step: 1,
            body: Box::new(body),
        };
        let txt = to_c(&l, &n);
        assert!(txt.contains("for (t1=1; t1<=100; t1++) {"), "{txt}");
        assert!(txt.contains("s0(t1);"), "{txt}");
        assert_eq!(lines_of_code(&l, &n), 3);
        assert_eq!(lines_of_text(&txt), 3);
    }

    #[test]
    fn mod_condition_rendering() {
        let n = Names::default();
        let c = Cond::atom(CondAtom::ModZero(Expr::Var(0), 4));
        assert_eq!(cond_to_string(&c, &n), "t1%4 == 0");
        let c = Cond::atom(CondAtom::ModZero(
            Expr::add(Expr::Var(0), Expr::Const(2)),
            4,
        ));
        assert_eq!(cond_to_string(&c, &n), "(t1+2)%4 == 0");
    }

    #[test]
    fn comparison_rendering() {
        let n = Names {
            params: vec!["n".into()],
            vars: vec![],
            stmts: vec![],
        };
        // n - 2 >= 0 renders as n >= 2
        let c = Cond::atom(CondAtom::GeqZero(Expr::add(
            Expr::Param(0),
            Expr::Const(-2),
        )));
        assert_eq!(cond_to_string(&c, &n), "n >= 2");
    }

    #[test]
    fn if_else_rendering() {
        let n = Names::default();
        let s = Stmt::If {
            cond: Cond::atom(CondAtom::ModZero(Expr::Var(0), 4)),
            then_: Box::new(Stmt::Call {
                stmt: 0,
                args: vec![Expr::Var(0)],
            }),
            else_: Some(Box::new(Stmt::Call {
                stmt: 1,
                args: vec![Expr::Var(0)],
            })),
        };
        let txt = to_c(&s, &n);
        assert!(txt.contains("else {"), "{txt}");
        assert_eq!(lines_of_code(&s, &n), 6);
        assert_eq!(lines_of_text(&txt), 6);
    }

    #[test]
    fn assign_rendering() {
        let n = Names::default();
        let s = Stmt::Assign {
            var: 1,
            value: Expr::mul(4, Expr::Var(0)),
            body: Box::new(Stmt::Call {
                stmt: 0,
                args: vec![Expr::Var(0), Expr::Var(1)],
            }),
        };
        let txt = to_c(&s, &n);
        assert!(txt.contains("t2 = 4*t1;"), "{txt}");
        assert!(txt.contains("s0(t1,t2);"), "{txt}");
        assert_eq!(lines_of_text(&txt), lines_of_code(&s, &n));
    }
}
