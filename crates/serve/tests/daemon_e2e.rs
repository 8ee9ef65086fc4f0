//! End-to-end daemon tests: boot `codegend` in-process on an ephemeral
//! port, drive the HTTP job API and endpoints over real sockets, and pin
//! the acceptance criterion — concurrent daemon responses are
//! byte-identical to batch CodeGen+ output.

mod common;

use common::{batch_code, field, gen, hold_pool, http_get, http_post, release, TempDir};
use serve::{spawn, Config, LogTarget};
use std::io::Read;
use std::net::{TcpListener, TcpStream};

#[test]
fn concurrent_kernel_jobs_are_byte_identical_to_batch() {
    let dir = TempDir::new("e2e-main");
    let daemon = spawn(Config {
        http_addr: "127.0.0.1:0".into(),
        // Every job is "slow": each keeps its trace and provenance.
        slow_ms: Some(0),
        slow_dir: dir.join("slow"),
        log: LogTarget::File(dir.join("requests.jsonl")),
        ..Config::default()
    })
    .unwrap();
    let n = 16;

    // All five Table 1 kernels concurrently on the worker pool — the
    // answer must still be a pure function of the job.
    let expected: Vec<(String, String)> = chill::recipes::all(n)
        .iter()
        .map(|k| (k.name.to_owned(), batch_code(k)))
        .collect();
    // Cold cache for the daemon side: the batch run above warmed the
    // process-wide memo caches, which would let every daemon job answer
    // from tier 1 and skip the tier-2 provenance dumps this test checks.
    omega::reset_sat_cache();
    let addr = daemon.http_addr();
    let handles: Vec<_> = expected
        .iter()
        .cloned()
        .map(|(name, want)| {
            std::thread::spawn(move || {
                let r = gen(
                    addr,
                    &format!(r#"{{"kernel":"{name}","n":{n},"effort":1,"id":"e2e-{name}"}}"#),
                );
                assert_eq!(field(&r, "id"), format!("e2e-{name}"));
                assert_eq!(field(&r, "certainty"), "exact");
                assert_eq!(
                    field(&r, "code"),
                    want,
                    "daemon code for {name} differs from batch output"
                );
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // /healthz reports ready with the five jobs counted.
    let (head, body) = http_get(daemon.http_addr(), "/healthz");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(body.contains("\"status\":\"ready\""), "{body}");
    assert!(body.contains("\"jobs_total\":5"), "{body}");

    // /metrics passes the structural checks and shows the request
    // counters, phase histograms and bridged solver counters.
    let (head, metrics) = http_get(daemon.http_addr(), "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(metrics.ends_with("# EOF\n"));
    assert!(metrics.contains("codegend_requests_total{kind=\"kernel\",status=\"ok\"} 5"));
    assert!(metrics.contains("codegend_inflight_jobs 0"));
    assert!(metrics.contains("codegend_codegen_seconds_count 5"));
    assert!(metrics.contains("codegend_phase_seconds_bucket{phase=\"cg_lower\""));
    assert!(metrics.contains("omega_solver_events_total{event=\"cache_misses\"}"));

    // 404 for unknown paths.
    let (head, _) = http_get(daemon.http_addr(), "/nope");
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");

    // The structured log carries one ok line per request, ids linking to
    // the per-request retained directories.
    let log = std::fs::read_to_string(dir.join("requests.jsonl")).unwrap();
    for (name, _) in &expected {
        let id = format!("e2e-{name}");
        let line = log
            .lines()
            .find(|l| {
                l.contains("\"event\":\"request\"") && l.contains(&format!("\"id\":\"{id}\""))
            })
            .unwrap_or_else(|| panic!("no request log line for {id}"));
        assert!(line.contains("\"status\":\"ok\""), "{line}");
        assert!(line.contains("\"certainty\":\"exact\""), "{line}");
        assert!(line.contains("\"ts_ms\":"), "{line}");
        assert!(
            dir.join("slow").join(&id).join("trace.json").is_file(),
            "no retained trace for {id}"
        );
    }
    // At least one request ran against a cold cache and kept tier-2
    // queries in its id-named directory.
    let dumped: usize = expected
        .iter()
        .filter_map(|(name, _)| {
            std::fs::read_dir(dir.join("slow").join(format!("e2e-{name}"))).ok()
        })
        .flatten()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "omega"))
        .count();
    assert!(dumped >= 1, "expected retained .omega dumps");

    daemon.shutdown();
    daemon.wait();
}

#[test]
fn adhoc_and_error_paths() {
    let dir = TempDir::new("e2e-adhoc");
    let daemon = spawn(Config {
        http_addr: "127.0.0.1:0".into(),
        log: LogTarget::File(dir.join("log.jsonl")),
        ..Config::default()
    })
    .unwrap();
    let addr = daemon.http_addr();

    // Ad-hoc iteration space, daemon-assigned id.
    let r = gen(addr, r#"{"spaces":["[n] -> { [i] : 0 <= i < n }"]}"#);
    assert!(field(&r, "id").starts_with("r-"), "{r:?}");
    assert_eq!(field(&r, "source"), "adhoc[1]");
    assert!(field(&r, "code").contains("for"), "{r:?}");

    // An unknown kernel and a bad set description are job errors; the
    // daemon keeps serving.
    let r = gen(addr, r#"{"kernel":"nosuch"}"#);
    assert!(field(&r, "error").contains("unknown kernel"), "{r:?}");
    let r = gen(addr, r#"{"spaces":["{ not a set }"]}"#);
    assert!(!field(&r, "error").is_empty(), "{r:?}");
    let (head, body) = http_get(addr, "/healthz");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(body.contains("\"status\":\"ready\""), "{body}");

    daemon.shutdown();
    daemon.wait();
}

#[test]
fn admission_control_sheds_jobs_over_the_cap_with_503() {
    let dir = TempDir::new("e2e-shed");
    let daemon = spawn(Config {
        http_addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_depth: 1,
        log: LogTarget::File(dir.join("log.jsonl")),
        ..Config::default()
    })
    .unwrap();
    let addr = daemon.http_addr();
    let held = hold_pool(addr, 1, 1);
    let (head, body) = http_post(addr, "/v1/gen", r#"{"kernel":"gemv","n":8}"#);
    assert!(head.starts_with("HTTP/1.1 503"), "{head}");
    assert!(head.contains("Retry-After: 1"), "{head}");
    assert!(body.contains("\"error\":\"busy\""), "{body}");
    assert!(body.contains("\"id\":\"r-"), "{body}");
    assert!(body.contains("\"capacity\":1"), "{body}");
    release(held);
    let (_, metrics) = http_get(addr, "/metrics");
    assert!(metrics.contains("codegend_jobs_shed_total 1"), "{metrics}");
    assert!(
        metrics.contains("codegend_requests_total{kind=\"unread\",status=\"busy\"} 1"),
        "{metrics}"
    );
    let log = std::fs::read_to_string(dir.join("log.jsonl")).unwrap();
    assert!(
        log.lines()
            .any(|l| l.contains("\"kind\":\"unread\"") && l.contains("\"status\":\"busy\"")),
        "{log}"
    );
    daemon.shutdown();
    daemon.wait();
}

/// Shutdown answers the connections still waiting for a worker instead
/// of dropping them; the worker finishes the one it holds.
#[test]
fn shutdown_answers_queued_connections() {
    let dir = TempDir::new("e2e-shutdown");
    let daemon = spawn(Config {
        http_addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_depth: 1,
        log: LogTarget::File(dir.join("log.jsonl")),
        ..Config::default()
    })
    .unwrap();
    let addr = daemon.http_addr();
    let mut held = hold_pool(addr, 1, 1);
    // Accepted in order: once a later connection is shed, the held ones
    // are with the worker and in the queue, not in the listen backlog.
    let (head, _) = http_post(addr, "/v1/gen", r#"{"kernel":"gemv","n":8}"#);
    assert!(head.starts_with("HTTP/1.1 503"), "{head}");
    daemon.shutdown();
    let mut queued = held.pop().unwrap();
    let mut response = String::new();
    queued.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 503"), "{response}");
    assert!(response.contains("Retry-After: 1"), "{response}");
    assert!(response.contains("daemon shutting down"), "{response}");
    release(held);
    daemon.wait();
}

/// Connections still in the listen backlog at shutdown, which `accept()`
/// has not returned yet, get the shutdown `503` too, never a reset. A
/// burst of clients connects right before `shutdown()`, faster than the
/// accept thread sheds them (the held pool makes every accepted one a
/// shed), so some are still in the backlog when the loop sees the stop
/// flag. Each reads a whole `503`; once the daemon is gone, a connect is
/// refused.
#[test]
fn shutdown_answers_the_listen_backlog() {
    let dir = TempDir::new("e2e-backlog");
    let daemon = spawn(Config {
        http_addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_depth: 1,
        log: LogTarget::File(dir.join("log.jsonl")),
        ..Config::default()
    })
    .unwrap();
    let addr = daemon.http_addr();
    let held = hold_pool(addr, 1, 1);
    let burst: Vec<TcpStream> = (0..64).map(|_| TcpStream::connect(addr).unwrap()).collect();
    daemon.shutdown();
    let (mut busy, mut shutting_down) = (0, 0);
    for (i, mut client) in burst.into_iter().enumerate() {
        let mut response = String::new();
        if let Err(e) = client.read_to_string(&mut response) {
            panic!("client {i}: {e} after {response:?}");
        }
        assert!(
            response.starts_with("HTTP/1.1 503"),
            "client {i}: {response:?}"
        );
        let body = response.split("\r\n\r\n").nth(1).unwrap_or("");
        assert!(
            body.ends_with("}\n"),
            "client {i}: a cut reply: {response:?}"
        );
        if body.contains("daemon shutting down") {
            shutting_down += 1;
        } else {
            assert!(body.contains("\"busy\""), "client {i}: {response:?}");
            busy += 1;
        }
    }
    eprintln!("{busy} shed as busy, {shutting_down} answered at shutdown");
    release(held);
    daemon.wait();
    assert!(
        TcpStream::connect(addr).is_err(),
        "the listener outlived the daemon"
    );
}

/// `Config::jobs_addr` binds nothing: a daemon pointed at an address
/// another socket already holds still starts and serves jobs.
#[test]
fn jobs_addr_binds_nothing() {
    let dir = TempDir::new("e2e-jobs-addr");
    let occupied = TcpListener::bind("127.0.0.1:0").unwrap();
    let daemon = spawn(Config {
        jobs_addr: occupied.local_addr().unwrap().to_string(),
        http_addr: "127.0.0.1:0".into(),
        log: LogTarget::File(dir.join("log.jsonl")),
        ..Config::default()
    })
    .unwrap();
    let r = gen(daemon.http_addr(), r#"{"kernel":"gemv","n":8}"#);
    assert_eq!(field(&r, "certainty"), "exact", "{r:?}");
    daemon.shutdown();
    daemon.wait();
}

/// The tentpole acceptance pin: daemon answers stay byte-identical to
/// the batch pipeline at *every* queue/worker configuration — worker
/// pool size and queue depth must never leak into generated code.
#[test]
fn byte_identical_across_queue_configurations() {
    let n = 8;
    let expected: Vec<(String, String)> = chill::recipes::all(n)
        .iter()
        .map(|k| (k.name.to_owned(), batch_code(k)))
        .collect();
    let configs = [1, 2, 4]
        .into_iter()
        .flat_map(|workers| [8, 256].map(|queue_depth| (workers, queue_depth)));
    for (workers, queue_depth) in configs {
        let dir = TempDir::new("e2e-cfg");
        let daemon = spawn(Config {
            http_addr: "127.0.0.1:0".into(),
            workers,
            queue_depth,
            log: LogTarget::File(dir.join("log.jsonl")),
            ..Config::default()
        })
        .unwrap();
        let addr = daemon.http_addr();
        let handles: Vec<_> = expected
            .iter()
            .cloned()
            .map(|(name, want)| {
                std::thread::spawn(move || {
                    let r = gen(
                        addr,
                        &format!(r#"{{"kernel":"{name}","n":{n},"effort":1}}"#),
                    );
                    assert_eq!(
                        field(&r, "code"),
                        want,
                        "workers={workers} depth={queue_depth}: \
                         daemon code for {name} differs from batch output"
                    );
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        daemon.shutdown();
        daemon.wait();
    }
}
