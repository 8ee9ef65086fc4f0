//! The daemon's thread budget is fixed at spawn: the accept thread and
//! the workers. Connections, however many, wait in the hand-off or are
//! shed; none gets a thread of its own. One test in its own binary, so
//! no other test's threads move this process's count.
#![cfg(target_os = "linux")]

mod common;

use common::{field, gen, half_open, hold_pool, http_get, release, TempDir};
use serve::{spawn, Config, LogTarget};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// This process's thread count, from `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("a Threads: line")
}

#[test]
fn connections_never_add_threads() {
    let dir = TempDir::new("thread-budget");
    let daemon = spawn(Config {
        http_addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 2,
        log: LogTarget::File(dir.join("log.jsonl")),
        ..Config::default()
    })
    .unwrap();
    let at_spawn = threads();
    let addr = daemon.http_addr();

    // Eight half-open connections: two held by the workers, two queued,
    // four shed.
    let mut held = hold_pool(addr, 2, 2);
    held.extend((0..4).map(|_| half_open(addr)));
    assert_eq!(threads(), at_spawn, "connections added threads");

    // With the pool held, a job is shed at once.
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(1)))
        .unwrap();
    let body = r#"{"kernel":"gemv","n":8}"#;
    write!(
        stream,
        "POST /v1/gen HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let elapsed = t0.elapsed();
    assert!(response.starts_with("HTTP/1.1 503"), "{response}");
    assert!(response.contains("Retry-After: 1"), "{response}");
    assert!(elapsed < Duration::from_secs(1), "shed after {elapsed:?}");
    assert_eq!(threads(), at_spawn, "a shed added threads");

    // Answered, the held connections free the pool: a job is served.
    release(held);
    let r = gen(addr, r#"{"kernel":"gemv","n":8}"#);
    assert_eq!(field(&r, "certainty"), "exact", "{r:?}");
    let (_, metrics) = http_get(addr, "/metrics");
    let shed: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("codegend_jobs_shed_total "))
        .and_then(|v| v.trim().parse().ok())
        .expect("a codegend_jobs_shed_total sample");
    assert!(shed >= 1, "{metrics}");

    daemon.shutdown();
    daemon.wait();
}
