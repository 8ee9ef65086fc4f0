//! Pins the generated C text of a fixed program set to committed digests.
//!
//! A change meant to make code generation cheaper (fewer solver questions,
//! a faster tier, a cheaper set operation) must leave every program
//! byte-identical. This test generates:
//!
//! - Table 1 at n = 64, CodeGen+ and CLooG at their default options;
//! - difftest seeds 0–99, CodeGen+ at efforts 0–2 and CLooG at its
//!   default options;
//! - both again for CLooG without compaction (`compact: false`), whose
//!   separation subtracts more and so reaches more of the set-difference
//!   path;
//!
//! hashes each program's C text (FNV-1a, 64 bit; a generation error
//! hashes its message) and compares every hash with
//! `tests/byte_identity.digests`. A change that rewrites generated code on
//! purpose re-commits that file: on a mismatch the test names the
//! programs that moved and prints every digest line to copy in.

use bench_harness::{generate, statements_of, Tool};
use chill::recipes;
use cloog::{Cloog, Options};
use codegenplus::{CodeGen, CodeGenError, Generated};

const DIGESTS: &str = include_str!("byte_identity.digests");

/// Difftest seeds covered: enough to reach every generator path the fuzz
/// corpus has found, small enough for a debug-build tier-1 run.
const SEEDS: u64 = 100;

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn text(r: Result<Generated, CodeGenError>) -> String {
    match r {
        Ok(g) => g.to_c(),
        Err(e) => format!("error: {e}"),
    }
}

/// `(program name, C text)` for every pinned program, in digest-file order.
fn programs() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for k in recipes::all(64) {
        let stmts = statements_of(&k);
        for (name, tool) in [("cgplus", Tool::codegenplus()), ("cloog", Tool::cloog())] {
            out.push((
                format!("table1/{}/{name}", k.name),
                generate(&stmts, tool).0.to_c(),
            ));
        }
    }
    for seed in 0..SEEDS {
        let stmts = difftest::gen_case(seed).statements();
        for effort in 0..=2 {
            let g = CodeGen::new()
                .statements(stmts.clone())
                .effort(effort)
                .generate();
            out.push((format!("seed/{seed}/cgplus/effort={effort}"), text(g)));
        }
        let g = Cloog::new().statements(stmts).generate();
        out.push((format!("seed/{seed}/cloog"), text(g)));
    }
    let uncompacted = Options {
        compact: false,
        ..Options::default()
    };
    for k in recipes::all(64) {
        let tool = Tool::Cloog {
            options: uncompacted,
        };
        out.push((
            format!("table1/{}/cloog/compact=off", k.name),
            generate(&statements_of(&k), tool).0.to_c(),
        ));
    }
    for seed in 0..SEEDS {
        let stmts = difftest::gen_case(seed).statements();
        let g = Cloog::new()
            .statements(stmts)
            .options(uncompacted)
            .generate();
        out.push((format!("seed/{seed}/cloog/compact=off"), text(g)));
    }
    out
}

#[test]
fn generated_code_matches_committed_digests() {
    let actual: Vec<(String, u64)> = programs()
        .into_iter()
        .map(|(name, c)| (name, fnv1a(&c)))
        .collect();
    let expected: Vec<(&str, &str)> = DIGESTS
        .lines()
        .map(|l| l.split_once(' ').expect("digest lines are `name hash`"))
        .collect();
    let lines: String = actual
        .iter()
        .map(|(name, h)| format!("{name} {h:016x}\n"))
        .collect();
    let moved: Vec<&str> = actual
        .iter()
        .zip(&expected)
        .filter(|((name, h), (en, eh))| name != en || format!("{h:016x}") != *eh)
        .map(|((name, _), _)| name.as_str())
        .collect();
    assert!(
        moved.is_empty() && actual.len() == expected.len(),
        "generated code changed for {} program(s) (of {}, {} pinned): {moved:?}\n\
         new tests/byte_identity.digests:\n{lines}",
        moved.len(),
        actual.len(),
        expected.len(),
    );
}
