//! Replays the committed differential-fuzzing corpus.
//!
//! Every `tests/corpus/*.difftest` entry is a shrunk reproducer of a real
//! bug the fuzzer found (the file name records the bug class; DESIGN.md
//! §"Differential testing" tells each story). Each entry must pass the
//! full differential check — CLooG baseline vs CodeGen+ at every effort,
//! cold and warm, executed against the enumeration oracle — so a
//! reintroduced bug fails tier-1 CI with the minimal reproducer attached.

use difftest::{check_statements, parse_case, CaseOutcome, CheckOptions};

#[test]
fn corpus_replays_clean() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("tests/corpus must exist")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "difftest"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "corpus must not be empty");
    for path in entries {
        let text = std::fs::read_to_string(&path).expect("readable corpus entry");
        let case = parse_case(&text).unwrap_or_else(|e| panic!("{}: parse: {e:?}", path.display()));
        match check_statements(
            &case.stmts,
            &case.params,
            &codegenplus::diff::generate_for,
            &CheckOptions::default(),
        ) {
            CaseOutcome::Pass => {}
            CaseOutcome::Skip(why) => panic!(
                "{}: every tool rejected the case ({why}) — the entry no longer exercises anything",
                path.display()
            ),
            CaseOutcome::Fail(d) => panic!("{}: regression: {d}", path.display()),
        }
    }
}
