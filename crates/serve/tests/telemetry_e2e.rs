//! End-to-end test of the `/debug/pprof/profile` sampling-profiler
//! endpoint: collapsed stacks under load, busy signalling, and
//! parameter checks.

mod common;

use common::{gen, http_get, TempDir};
use serve::{spawn, Config, LogTarget};
use std::time::Duration;

#[test]
fn profile_endpoint_returns_collapsed_stacks_and_signals_busy() {
    let dir = TempDir::new("tele-profile");
    // A capture occupies a worker for its whole duration: the busy check
    // below needs a second worker while one capture holds the first.
    let daemon = spawn(Config {
        http_addr: "127.0.0.1:0".into(),
        workers: 2,
        log: LogTarget::File(dir.join("log.jsonl")),
        ..Config::default()
    })
    .unwrap();

    // Keep the workers hot for the whole capture so samples land in the
    // solver/codegen path, not just the idle accept loop.
    let http_addr = daemon.http_addr();
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let load = {
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut i = 0;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                gen(
                    http_addr,
                    &format!(r#"{{"kernel":"gemm","n":32,"id":"p-{i}"}}"#),
                );
                i += 1;
            }
        })
    };

    let (head, text) = http_get(daemon.http_addr(), "/debug/pprof/profile?seconds=1");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("text/plain"), "{head}");
    assert!(!text.trim().is_empty(), "empty collapsed profile");
    // Every line is `frame;frame;... count`.
    for line in text.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("stack<space>count");
        assert!(!stack.is_empty(), "{line}");
        count.parse::<u64>().expect("trailing sample count");
    }
    // Under load, identifiable daemon frames appear in the stacks.
    assert!(
        text.contains("serve::") || text.contains("omega::") || text.contains("codegend"),
        "no daemon frames in:\n{text}"
    );

    // `format` is no longer a parameter: any value gets the same text.
    let (head, text) = http_get(
        daemon.http_addr(),
        "/debug/pprof/profile?seconds=1&format=pprof",
    );
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("text/plain"), "{head}");
    assert!(!text.trim().is_empty(), "empty collapsed profile");

    // A second session while one runs is refused, not queued.
    let long = std::thread::spawn(move || http_get(http_addr, "/debug/pprof/profile?seconds=2"));
    std::thread::sleep(Duration::from_millis(400));
    let (head, body) = http_get(daemon.http_addr(), "/debug/pprof/profile?seconds=1");
    assert!(head.starts_with("HTTP/1.1 409"), "{head}: {body}");
    assert!(body.contains("busy"), "{body}");
    let (head, _) = long.join().unwrap();
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");

    // Bad parameters are rejected loudly.
    let (head, _) = http_get(daemon.http_addr(), "/debug/pprof/profile?mode=sideways");
    assert!(head.starts_with("HTTP/1.1 400"), "{head}");

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    load.join().unwrap();
    daemon.shutdown();
    daemon.wait();
}
