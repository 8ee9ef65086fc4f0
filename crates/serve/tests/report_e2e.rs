//! Per-job reports are exact under concurrency: each report's solver
//! question counts are the job's own work, not its neighbors', because
//! they come from the job's worker thread. Its own test binary, so no
//! other test resets the shared solver cache under it.

mod common;

use common::{batch_code, gen, http_get, TempDir};
use serve::json::Json;
use serve::{spawn, Config, LogTarget};

/// The counts a report must share with a sequential generation: total sat
/// and gist questions and the set-difference work. Which of them the
/// cache answers depends on what other jobs left there, so the cache/tier
/// split is not compared.
fn question_counts(counters: &Json) -> [u64; 4] {
    let c = |name: &str| counters.get(name).and_then(Json::as_u64).unwrap();
    [
        c("cache_hits") + c("cache_misses"),
        c("gist_hits") + c("gist_misses"),
        c("subtract_pairs"),
        c("subtract_built"),
    ]
}

#[test]
fn concurrent_reports_count_exactly_their_own_work() {
    let n = 64;
    let kernels = chill::recipes::all(n);
    // A gist cache miss asks the redundancy questions a hit skips, so the
    // sat total depends on the gist cache: warm it with one generation of
    // each kernel, then take each reference from a second, sequential one.
    for k in &kernels {
        batch_code(k);
    }
    let expected: Vec<(&str, [u64; 4])> = kernels
        .iter()
        .map(|k| {
            let before = omega::stats::thread_snapshot();
            batch_code(k);
            let d = omega::stats::thread_snapshot().delta(&before);
            let counts = [
                d.cache_hits + d.cache_misses,
                d.gist_hits + d.gist_misses,
                d.subtract_pairs,
                d.subtract_built,
            ];
            (k.name, counts)
        })
        .collect();

    let dir = TempDir::new("report-exact");
    let daemon = spawn(Config {
        http_addr: "127.0.0.1:0".into(),
        workers: 5,
        log: LogTarget::File(dir.join("log.jsonl")),
        ..Config::default()
    })
    .unwrap();
    let addr = daemon.http_addr();
    let handles: Vec<_> = expected
        .iter()
        .map(|&(name, _)| {
            std::thread::spawn(move || {
                gen(
                    addr,
                    &format!(r#"{{"kernel":"{name}","n":{n},"id":"exact-{name}"}}"#),
                )
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let (_, body) = http_get(addr, "/debug/requests");
    let reports = serve::json::parse(&body).unwrap();
    let reports = reports.as_arr().unwrap();
    for (name, want) in &expected {
        let id = format!("exact-{name}");
        let r = reports
            .iter()
            .find(|r| r.get("id").and_then(Json::as_str) == Some(id.as_str()))
            .unwrap_or_else(|| panic!("no report for {id}: {body}"));
        assert_eq!(r.get("status").and_then(Json::as_str), Some("ok"), "{body}");
        let got = question_counts(r.get("counters").unwrap());
        assert_eq!(
            &got, want,
            "{name}: report counts differ from a sequential run"
        );
        let Some(Json::Obj(phases)) = r.get("phases") else {
            panic!("{name}: no phases object");
        };
        assert!(phases.contains_key("cg_lower"), "{name}: phases {phases:?}");
    }
    daemon.shutdown();
    daemon.wait();
}
