//! Real-compiler measurements: when `gcc` is available, compile the
//! generated code with `gcc -O3` (the paper's actual compile-time column)
//! and time the compiled binary (the paper's actual performance column).
//! Statement payloads are volatile increments, so the measured differences
//! come from the generated control flow — precisely the effect the paper
//! attributes its speedups to.

use codegenplus::Generated;
use polyir::print::to_c_program;
use std::io::Write;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

/// Results of compiling and running generated code with a real compiler.
#[derive(Clone, Debug)]
pub struct GccReport {
    /// Wall-clock time of `gcc -O3 -c`.
    pub compile_time: Duration,
    /// Reported execution time of the compiled scan (seconds), averaged
    /// over the repetitions performed inside the binary.
    pub run_time: Duration,
    /// Statement instances counted by the binary (correctness check).
    pub instances: u64,
}

/// Is a usable `gcc` on PATH?
pub fn gcc_available() -> bool {
    Command::new("gcc")
        .arg("--version")
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false)
}

/// Builds the driver C file around the generated program.
fn driver_source(g: &Generated, reps: u64) -> String {
    let mut src = String::new();
    src.push_str("#include <stdio.h>\n#include <time.h>\n");
    src.push_str("static volatile long acc;\n");
    // Statement macros: a volatile increment keeps every instance alive
    // under -O3 without adding data-dependent work.
    let mut ids = Vec::new();
    collect_stmt_ids(&g.code, &mut ids);
    for id in &ids {
        src.push_str(&format!("#define {}(...) (acc += 1)\n", g.names.stmt(*id)));
    }
    src.push_str(&to_c_program(&g.code, &g.names, "scan"));
    let params: Vec<String> = g
        .names
        .params
        .iter()
        .enumerate()
        .map(|(i, _)| format!("(long)atol(argv[{}])", i + 1))
        .collect();
    src.push_str(&format!(
        r#"
int main(int argc, char **argv) {{
    (void)argc;
    long reps = {reps};
    struct timespec t0, t1;
    clock_gettime(CLOCK_MONOTONIC, &t0);
    for (long r = 0; r < reps; r++) {{
        scan({});
    }}
    clock_gettime(CLOCK_MONOTONIC, &t1);
    double secs = (t1.tv_sec - t0.tv_sec) + 1e-9 * (t1.tv_nsec - t0.tv_nsec);
    printf("%.9f %ld\n", secs / reps, (long)acc / reps);
    return 0;
}}
"#,
        params.join(", ")
    ));
    src
}

fn collect_stmt_ids(s: &polyir::Stmt, out: &mut Vec<usize>) {
    match s {
        polyir::Stmt::Seq(items) => items.iter().for_each(|i| collect_stmt_ids(i, out)),
        polyir::Stmt::Loop { body, .. } | polyir::Stmt::Assign { body, .. } => {
            collect_stmt_ids(body, out)
        }
        polyir::Stmt::If { then_, else_, .. } => {
            collect_stmt_ids(then_, out);
            if let Some(e) = else_ {
                collect_stmt_ids(e, out);
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

/// Compiles generated code with `gcc -O3` and runs it.
///
/// # Errors
///
/// Returns a human-readable error when gcc fails or the binary misbehaves.
pub fn measure_with_gcc(g: &Generated, params: &[i64], reps: u64) -> Result<GccReport, String> {
    let dir = scratch_dir("cgplus-gcc");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let c_path: PathBuf = dir.join("scan.c");
    let o_path: PathBuf = dir.join("scan");
    {
        let mut f = std::fs::File::create(&c_path).map_err(|e| e.to_string())?;
        f.write_all(driver_source(g, reps).as_bytes())
            .map_err(|e| e.to_string())?;
    }
    let t0 = Instant::now();
    let out = Command::new("gcc")
        .arg("-O3")
        .arg("-o")
        .arg(&o_path)
        .arg(&c_path)
        .arg("-lm")
        .output()
        .map_err(|e| e.to_string())?;
    let compile_time = t0.elapsed();
    if !out.status.success() {
        return Err(format!(
            "gcc failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let mut cmd = Command::new(&o_path);
    for p in params {
        cmd.arg(p.to_string());
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err("compiled scan crashed".to_owned());
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut it = text.split_whitespace();
    let secs: f64 = it
        .next()
        .ok_or("missing timing")?
        .parse()
        .map_err(|_| "bad timing")?;
    let instances: u64 = it
        .next()
        .ok_or("missing count")?
        .parse()
        .map_err(|_| "bad count")?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(GccReport {
        compile_time,
        run_time: Duration::from_secs_f64(secs.max(0.0)),
        instances,
    })
}

/// A path under the system temp dir that no other call in any running
/// process returns: `tag`, the process id and a per-process counter. Any
/// leftover from an earlier process with the same id is removed; the
/// caller creates the directory.
pub fn scratch_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let token = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("{tag}-{}-{token}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, statements_of, Tool};

    #[test]
    fn gcc_roundtrip_counts_instances() {
        if !gcc_available() {
            eprintln!("gcc not available; skipping");
            return;
        }
        let k = chill::recipes::gemv(24);
        let stmts = statements_of(&k);
        let (g, _) = generate(&stmts, Tool::codegenplus());
        let r = measure_with_gcc(&g, &k.params, 3).expect("gcc pipeline");
        assert_eq!(
            r.instances,
            24 * 24,
            "compiled code must cover all instances"
        );
        assert!(r.compile_time > Duration::ZERO);
    }

    #[test]
    fn gcc_both_tools_agree_on_instances() {
        if !gcc_available() {
            eprintln!("gcc not available; skipping");
            return;
        }
        let k = chill::recipes::qr(20);
        let stmts = statements_of(&k);
        let (a, _) = generate(&stmts, Tool::codegenplus());
        let (b, _) = generate(&stmts, Tool::cloog());
        let ra = measure_with_gcc(&a, &k.params, 2).unwrap();
        let rb = measure_with_gcc(&b, &k.params, 2).unwrap();
        assert_eq!(ra.instances, rb.instances);
    }
}
