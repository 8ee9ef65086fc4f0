//! Cold-vs-warm corpus replay through the persistent solver cache.
//!
//! Replays every committed `tests/corpus/*.difftest` reproducer twice
//! against one on-disk cache directory — once cold (empty cache, every
//! tier-2 verdict solved and persisted) and once warm (a fresh process
//! that boots from the log written by the first) — and asserts the
//! generated code is **byte-identical** across the two runs. A warm
//! persistent tier is a pure accelerator: it must never change what the
//! generator emits.
//!
//! The persistent store installs process-wide once ([`omega::persist::init`])
//! and its warm index is fixed at open, so "a second boot" needs a second
//! process: the parent test re-execs its own test binary twice, filtered
//! down to the child entry point, with the cache directory in an
//! environment variable.

use bench_harness::gcc::scratch_dir;
use std::path::PathBuf;
use std::process::Command;

/// Set (to the cache directory) only in child processes.
const CHILD_ENV: &str = "PERSIST_CORPUS_CHILD_DIR";

/// Replays the corpus with the process-global persistent cache enabled
/// and prints machine-readable result lines for the parent. No-op when
/// run as a regular test (the env var is absent).
#[test]
fn persist_corpus_child_entry() {
    let Ok(dir) = std::env::var(CHILD_ENV) else {
        return;
    };
    let summary = omega::persist::init(&dir).expect("child must open the cache");
    println!(
        "PERSIST_WARM_RECORDS={}",
        summary.sat_records + summary.gist_records
    );
    println!("PERSIST_TRUNCATED={}", summary.truncated_bytes);
    println!("PERSIST_DIGEST={}", replay_corpus());
    println!("PERSIST_FLUSHED={}", omega::persist::flush());
    #[cfg(feature = "stats")]
    {
        let s = omega::stats::snapshot();
        println!("PERSIST_HITS={}", s.persist_hits + s.persist_gist_hits);
    }
}

/// Generates code for every corpus case at a small configuration matrix
/// and folds all of it into one digest.
fn replay_corpus() -> u64 {
    use std::hash::{Hash, Hasher};
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("tests/corpus must exist")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "difftest"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "corpus must not be empty");
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for path in entries {
        let text = std::fs::read_to_string(&path).expect("readable corpus entry");
        let case = difftest::parse_case(&text)
            .unwrap_or_else(|e| panic!("{}: parse: {e:?}", path.display()));
        for effort in [0, 2] {
            let cfg = codegenplus::diff::GenConfig {
                effort,
                threads: 1,
                intra: 1,
            };
            match codegenplus::diff::generate_for(&case.stmts, &cfg) {
                Ok(g) => {
                    g.to_c().hash(&mut h);
                    format!("{:?}", g.certainty).hash(&mut h);
                }
                Err(e) => e.to_string().hash(&mut h),
            }
        }
    }
    h.finish()
}

fn run_child(dir: &std::path::Path) -> Vec<String> {
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args([
            "persist_corpus_child_entry",
            "--exact",
            "--nocapture",
            "--test-threads=1",
        ])
        .env(CHILD_ENV, dir)
        .output()
        .expect("child test process runs");
    assert!(
        out.status.success(),
        "child replay failed:\n--- stdout ---\n{}\n--- stderr ---\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    // The harness prints `test <name> ...` without a newline, so the
    // first result line is glued to it — find the marker anywhere.
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.find("PERSIST_").map(|i| l[i..].to_owned()))
        .collect()
}

fn field(lines: &[String], key: &str) -> u64 {
    lines
        .iter()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("child printed no {key}: {lines:?}"))
        .parse()
        .unwrap_or_else(|e| panic!("bad {key} value: {e}"))
}

#[test]
fn corpus_cold_then_warm_is_byte_identical() {
    if std::env::var(CHILD_ENV).is_ok() {
        // We *are* a child (the --exact filter should prevent this, but
        // belt and braces against harness changes).
        return;
    }
    let dir = scratch_dir("omega-persist-corpus");
    std::fs::create_dir_all(&dir).unwrap();

    let cold = run_child(&dir);
    assert_eq!(
        field(&cold, "PERSIST_WARM_RECORDS"),
        0,
        "first boot must start from an empty cache"
    );
    assert!(
        field(&cold, "PERSIST_FLUSHED") > 0,
        "the cold run must persist at least one exact verdict"
    );
    let log = PathBuf::from(&dir).join(omega::persist::LOG_FILE);
    assert!(log.is_file(), "cold run must leave a record log behind");

    let warm = run_child(&dir);
    assert!(
        field(&warm, "PERSIST_WARM_RECORDS") > 0,
        "second boot must warm-start from the first run's records"
    );
    assert_eq!(
        field(&warm, "PERSIST_TRUNCATED"),
        0,
        "a cleanly flushed log needs no recovery truncation"
    );
    assert_eq!(
        field(&cold, "PERSIST_DIGEST"),
        field(&warm, "PERSIST_DIGEST"),
        "warm-cache output must be byte-identical to cold-cache output"
    );
    #[cfg(feature = "stats")]
    assert!(
        field(&warm, "PERSIST_HITS") > 0,
        "the warm run must actually hit the persistent tier"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}
