//! Dev helper: cold and warm generation times plus the
//! satisfiability-pipeline tier report for one Table 1 kernel. Per-phase times come from a span trace
//! (`table1 --trace`).
//!
//! ```sh
//! cargo run --release --example profile_trace -- gemv 64
//! ```

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "gemv".into());
    let n: i64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    let kernel = chill::recipes::all(n)
        .into_iter()
        .find(|k| k.name == name)
        .expect("unknown kernel name");
    let stmts = bench_harness::statements_of(&kernel);
    for tool in [
        bench_harness::Tool::codegenplus(),
        bench_harness::Tool::cloog(),
    ] {
        let (_, cold) = bench_harness::generate(&stmts, tool);
        let mut warm = cold;
        for _ in 0..5 {
            let (_, t) = bench_harness::generate(&stmts, tool);
            warm = warm.min(t);
        }
        eprintln!("{tool:?}: cold {cold:.2?}, warm(min of 5) {warm:.2?}");
        eprintln!("  stats: {}", omega::stats::snapshot());
        omega::stats::reset();
    }
}
