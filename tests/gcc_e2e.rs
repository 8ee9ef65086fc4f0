//! The ultimate end-to-end oracle: compile generated code with the real
//! gcc, run it with printf statement payloads, and compare the printed
//! trace with the interpreter's — for both tools, on a transformed kernel.
//! Skips silently when no gcc is on PATH.

use bench_harness::gcc::{gcc_available, scratch_dir};
use bench_harness::{generate, statements_of, Tool};
use codegenplus::Generated;
use std::io::Write;
use std::process::Command;

fn gcc_trace(g: &Generated, params: &[i64]) -> Vec<(usize, Vec<i64>)> {
    let dir = scratch_dir("cgplus-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let c_path = dir.join("trace.c");
    let bin = dir.join("trace");
    let mut src = String::from("#include <stdio.h>\n");
    // printf payloads: statement id followed by every coordinate.
    let mut ids = Vec::new();
    collect_ids(&g.code, &mut ids);
    let arity = max_arity(&g.code);
    for id in &ids {
        let args: Vec<String> = (0..arity).map(|k| format!("a{k}")).collect();
        let fmt = vec!["%ld"; arity + 1].join(" ");
        let vals: Vec<String> = std::iter::once(id.to_string())
            .chain(args.iter().map(|a| format!("(long)({a})")))
            .collect();
        src.push_str(&format!(
            "#define {}({}) printf(\"{}\\n\", {})\n",
            g.names.stmt(*id),
            args.join(","),
            fmt,
            vals.join(", ")
        ));
    }
    src.push_str(&polyir::print::to_c_program(&g.code, &g.names, "scan"));
    let actuals: Vec<String> = params.iter().map(|p| p.to_string()).collect();
    src.push_str(&format!(
        "int main(void) {{ scan({}); return 0; }}\n",
        actuals.join(", ")
    ));
    std::fs::File::create(&c_path)
        .unwrap()
        .write_all(src.as_bytes())
        .unwrap();
    let out = Command::new("gcc")
        .args(["-O2", "-o"])
        .arg(&bin)
        .arg(&c_path)
        .arg("-lm")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "gcc failed: {}\nsource:\n{src}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = Command::new(&bin).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let trace = text
        .lines()
        .map(|l| {
            let mut it = l.split_whitespace().map(|x| x.parse::<i64>().unwrap());
            let id = it.next().unwrap() as usize;
            (id, it.collect())
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    trace
}

fn collect_ids(s: &polyir::Stmt, out: &mut Vec<usize>) {
    match s {
        polyir::Stmt::Seq(items) => items.iter().for_each(|i| collect_ids(i, out)),
        polyir::Stmt::Loop { body, .. } | polyir::Stmt::Assign { body, .. } => {
            collect_ids(body, out)
        }
        polyir::Stmt::If { then_, else_, .. } => {
            collect_ids(then_, out);
            if let Some(e) = else_ {
                collect_ids(e, out);
            }
        }
        polyir::Stmt::Call { stmt, .. } => {
            if !out.contains(stmt) {
                out.push(*stmt);
            }
        }
        polyir::Stmt::Nop => {}
    }
}

fn max_arity(s: &polyir::Stmt) -> usize {
    match s {
        polyir::Stmt::Seq(items) => items.iter().map(max_arity).max().unwrap_or(0),
        polyir::Stmt::Loop { body, .. } | polyir::Stmt::Assign { body, .. } => max_arity(body),
        polyir::Stmt::If { then_, else_, .. } => {
            max_arity(then_).max(else_.as_deref().map(max_arity).unwrap_or(0))
        }
        polyir::Stmt::Call { args, .. } => args.len(),
        polyir::Stmt::Nop => 0,
    }
}

#[test]
fn compiled_trace_matches_interpreter_for_all_kernels() {
    if !gcc_available() {
        eprintln!("gcc not available; skipping");
        return;
    }
    for k in chill::recipes::all(8) {
        for tool in [Tool::codegenplus(), Tool::cloog()] {
            let stmts = statements_of(&k);
            let (g, _) = generate(&stmts, tool);
            let interp = polyir::execute(&g.code, &k.params).unwrap();
            let real = gcc_trace(&g, &k.params);
            assert_eq!(
                real, interp.trace,
                "gcc-compiled trace diverges for {} under {:?}",
                k.name, tool
            );
        }
    }
}

#[test]
fn compiled_trace_matches_for_strided_figure8() {
    if !gcc_available() {
        eprintln!("gcc not available; skipping");
        return;
    }
    let stmts: Vec<codegenplus::Statement> = [
        "[n] -> { [i] : 1 <= i <= n && exists(a : i = 4a) }",
        "[n] -> { [i] : 1 <= i <= n && exists(a : i = 4a + 2) }",
    ]
    .iter()
    .enumerate()
    .map(|(k, d)| codegenplus::Statement::new(format!("s{k}"), omega::Set::parse(d).unwrap()))
    .collect();
    let (g, _) = generate(&stmts, Tool::codegenplus());
    let interp = polyir::execute(&g.code, &[23]).unwrap();
    let real = gcc_trace(&g, &[23]);
    assert_eq!(real, interp.trace);
}
