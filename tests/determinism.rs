//! `CodeGen::threads(n)` promises byte-identical generated code for every
//! thread count: the parallel recursion collects results by input index,
//! the exact solver's input is canonicalized before budgeted solves, and
//! memo caches only store values that are pure functions of their keys. These
//! tests pin that promise across all five Table 1 kernels, and the cache
//! test also across the committed difftest corpus.

use bench_harness::statements_of;
use chill::recipes;
use codegenplus::CodeGen;

fn emit(stmts: &[codegenplus::Statement], threads: usize) -> String {
    CodeGen::new()
        .statements(stmts.to_vec())
        .threads(threads)
        .generate()
        .unwrap()
        .to_c()
}

#[test]
fn thread_count_never_changes_generated_code() {
    for k in recipes::all(10) {
        let stmts = statements_of(&k);
        let sequential = emit(&stmts, 1);
        for threads in [2, 4, 8] {
            assert_eq!(
                sequential,
                emit(&stmts, threads),
                "{} differs between threads(1) and threads({})",
                k.name,
                threads
            );
        }
    }
}

/// The committed `tests/corpus/*.difftest` reproducers as named inputs.
fn corpus_cases() -> Vec<(String, Vec<codegenplus::Statement>)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("tests/corpus must exist")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "difftest"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "corpus must not be empty");
    entries
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("readable corpus entry");
            let case = difftest::parse_case(&text)
                .unwrap_or_else(|e| panic!("{}: parse: {e:?}", path.display()));
            (path.display().to_string(), case.stmts)
        })
        .collect()
}

#[test]
fn cache_state_never_changes_generated_code() {
    // Warm-cache reruns and post-eviction reruns must also be identical:
    // the memo caches may change *when* work happens, never its result.
    // Inputs: the Table 1 kernels and the committed difftest corpus, at
    // every effort.
    let mut inputs: Vec<_> = recipes::all(10)
        .iter()
        .map(|k| (k.name.to_owned(), statements_of(k)))
        .collect();
    inputs.extend(corpus_cases());
    for (name, stmts) in &inputs {
        for effort in 0..=2 {
            let gen = |threads| {
                CodeGen::new()
                    .statements(stmts.clone())
                    .effort(effort)
                    .threads(threads)
                    .generate()
                    .unwrap()
                    .to_c()
            };
            omega::reset_sat_cache();
            let cold = gen(8);
            let warm = gen(8);
            omega::reset_sat_cache();
            let recold = gen(1);
            assert_eq!(
                cold, warm,
                "{name} effort {effort} differs cold vs warm cache"
            );
            assert_eq!(
                cold, recold,
                "{name} effort {effort} differs across cache resets"
            );
        }
    }
}

#[test]
fn default_is_sequential_and_matches_every_opt_in() {
    // The default run is sequential, and opting in to threads — an
    // explicit count or all cores — changes only speed.
    assert_eq!(CodeGen::new().resolved_threads(), 1);
    for k in recipes::all(10) {
        let stmts = statements_of(&k);
        let gen = |cg: CodeGen| cg.statements(stmts.to_vec()).generate().unwrap().to_c();
        let sequential = gen(CodeGen::new());
        assert_eq!(
            sequential,
            gen(CodeGen::new().threads(2)),
            "{} differs between the default and threads(2)",
            k.name
        );
        assert_eq!(
            sequential,
            gen(CodeGen::new().threads(0)),
            "{} differs between the default and threads(0)",
            k.name
        );
    }
}
