//! Dev tool: print both tools' generated code for a `.difftest` file.
//! `cargo run -p difftest --example show_case -- FILE [effort]`

use codegenplus::diff::generate_for;

fn main() {
    let mut args = std::env::args().skip(1);
    let path = args.next().expect("usage: show_case FILE [effort]");
    let effort: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(1);
    let text = std::fs::read_to_string(&path).expect("read case file");
    let case = difftest::parse_case(&text).expect("parse case");
    println!("params: {:?}", case.params);
    for (i, s) in case.stmts.iter().enumerate() {
        println!("s{i}: {}", s.domain.to_input_syntax());
    }
    match cloog::Cloog::new()
        .statements(case.stmts.clone())
        .generate()
    {
        Ok(g) => println!("\n--- cloog ---\n{}", g.to_c()),
        Err(e) => println!("\n--- cloog: error {e}"),
    }
    match generate_for(&case.stmts, effort) {
        Ok(g) => println!("--- codegen+ effort {effort} ---\n{}", g.to_c()),
        Err(e) => println!("--- codegen+: error {e}"),
    }
}
