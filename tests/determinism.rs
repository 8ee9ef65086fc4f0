//! Generated code is a pure function of the input: the exact solver's
//! input is canonicalized before budgeted solves, and the memo caches only
//! store values that are pure functions of their keys, so a cold cache, a
//! warm one and a freshly reset one all give byte-identical code. These
//! tests pin that promise across all five Table 1 kernels and the
//! committed difftest corpus.

use bench_harness::statements_of;
use chill::recipes;
use codegenplus::CodeGen;

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
            let gen = || {
                CodeGen::new()
                    .statements(stmts.clone())
                    .effort(effort)
                    .generate()
                    .unwrap()
                    .to_c()
            };
            omega::reset_sat_cache();
            let cold = gen();
            let warm = gen();
            omega::reset_sat_cache();
            let recold = gen();
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
