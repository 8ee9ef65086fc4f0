//! End-to-end tests of the introspection surface: the `/debug/*`
//! endpoints, the per-job QueryReport wide events, and `--slow-ms`
//! tail sampling — a daemon with *default* flags (no `--slow-ms`, no
//! trace file) must still answer `/debug/requests` with populated
//! reports.

mod common;

use common::TempDir;
use serve::json::Json;
use serve::{spawn, Config, LogTarget};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Serializes the tests that generate code: the solver's memo cache is
/// process-wide, and the degraded-job test needs it to stay cold between
/// its reset and its query. A kernel generated concurrently by another
/// test would warm it with exact verdicts, and the deadline would never
/// be consulted.
fn solver_cache() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn connect(addr: SocketAddr) -> BufReader<TcpStream> {
    BufReader::new(TcpStream::connect(addr).unwrap())
}

/// Sends one `gen` line, returns the response header, draining any
/// `ok` payload so the connection can be reused.
fn submit(conn: &mut BufReader<TcpStream>, line: &str) -> String {
    conn.get_mut()
        .write_all(format!("{line}\n").as_bytes())
        .unwrap();
    let mut header = String::new();
    conn.read_line(&mut header).unwrap();
    let header = header.trim_end().to_owned();
    if header.starts_with("ok ") {
        let bytes: usize = header
            .split_whitespace()
            .find_map(|t| t.strip_prefix("bytes="))
            .unwrap()
            .parse()
            .unwrap();
        let mut payload = vec![0u8; bytes];
        conn.read_exact(&mut payload).unwrap();
    }
    header
}

/// The sorted top-level keys of a JSON object body.
fn top_level_keys(body: &str) -> Vec<String> {
    match serve::json::parse(body) {
        Ok(Json::Obj(m)) => m.into_keys().collect(),
        other => panic!("not a JSON object: {other:?}: {body}"),
    }
}

fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").unwrap();
    (head.to_owned(), body.to_owned())
}

fn default_daemon(dir: &std::path::Path, cfg: Config) -> serve::Daemon {
    spawn(Config {
        jobs_addr: "127.0.0.1:0".into(),
        http_addr: "127.0.0.1:0".into(),
        log: LogTarget::File(dir.join("log.jsonl")),
        ..cfg
    })
    .unwrap()
}

#[test]
fn default_flags_populate_debug_requests_and_config() {
    let _cache = solver_cache();
    let dir = TempDir::new("debug-default");
    // Default observability flags, no slow threshold: the acceptance
    // criterion is that introspection works with nothing pre-armed.
    let daemon = default_daemon(dir.path(), Config::default());
    let mut conn = connect(daemon.jobs_addr());
    for name in ["gemv", "qr", "swim", "gemm", "lu"] {
        let header = submit(&mut conn, &format!("gen kernel={name} n=12 id=dbg-{name}"));
        assert!(header.starts_with("ok "), "{header}");
    }

    // /debug/requests: five populated reports, oldest first.
    let (head, body) = http_get(daemon.http_addr(), "/debug/requests");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(body.matches("\"event\":\"report\"").count(), 5, "{body}");
    for name in ["gemv", "qr", "swim", "gemm", "lu"] {
        assert!(body.contains(&format!("\"id\":\"dbg-{name}\"")), "{body}");
    }
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(body.contains("\"certainty\":\"exact\""), "{body}");
    // Phase attribution from the per-job span collector.
    assert!(body.contains("\"cg_generate\":"), "{body}");
    assert!(body.contains("\"sat_query\":"), "{body}");
    // Solver counter deltas + the derived exact-solve count.
    assert!(body.contains("\"counters\":{\"tier0_unsat\":"), "{body}");
    assert!(body.contains("\"exact_solves\":"), "{body}");
    // Kernel jobs carry the dynamic-cost performance proxy.
    assert!(body.contains("\"dynamic_cost\":"), "{body}");
    // Every report carries exactly the QueryReport fields.
    for line in body.lines() {
        let line = line.trim_end_matches(',');
        if line.starts_with("{\"event\":\"report\"") {
            assert_eq!(
                top_level_keys(line),
                [
                    "bytes",
                    "certainty",
                    "codegen_ns",
                    "compile_ns",
                    "counters",
                    "dynamic_cost",
                    "effort",
                    "event",
                    "exact_solves",
                    "id",
                    "kind",
                    "lines",
                    "phases",
                    "queue_ns",
                    "request_ns",
                    "slow",
                    "source",
                    "status",
                    "ts_ms",
                ],
                "{line}"
            );
        }
    }

    // The request log carries the *same bytes*: every report line served
    // by /debug/requests is one line of the log, verbatim.
    let log = std::fs::read_to_string(dir.join("log.jsonl")).unwrap();
    for line in body.lines() {
        let line = line.trim_end_matches(',');
        if line.starts_with("{\"event\":\"report\"") {
            assert!(
                log.lines().any(|l| l == line),
                "report not logged byte-identically: {line}"
            );
        }
    }

    // A job's spans live only in its collector and the solver counters
    // on /metrics, so neither has a /debug page.
    for path in ["/debug/flight", "/debug/stats"] {
        let (head, _) = http_get(daemon.http_addr(), path);
        assert!(head.starts_with("HTTP/1.1 404"), "{path}: {head}");
    }

    // /debug/config: the resolved configuration, and nothing else (the
    // solver caches are in-memory only, so no cache directory).
    let (_, cfg_body) = http_get(daemon.http_addr(), "/debug/config");
    assert!(cfg_body.contains("\"slow_ms\":null"), "{cfg_body}");
    assert_eq!(
        top_level_keys(&cfg_body),
        [
            "build",
            "deadline_ms",
            "default_effort",
            "http_addr",
            "jobs_addr",
            "log_keep",
            "log_max_mb",
            "log_rotations",
            "profiler_supported",
            "queue_depth",
            "queue_timeout_ms",
            "slow_dir",
            "slow_ms",
            "workers",
        ],
        "{cfg_body}"
    );

    // /healthz: queue facts and degrade totals, and no on-disk solver
    // tier to report.
    let (_, health) = http_get(daemon.http_addr(), "/healthz");
    assert!(health.contains("\"status\":\"ready\""), "{health}");
    assert!(health.contains("\"jobs_total\":5"), "{health}");
    assert!(health.contains("\"degraded\":{\"sat\":"), "{health}");
    assert_eq!(
        top_level_keys(&health),
        [
            "build",
            "degraded",
            "inflight",
            "jobs_total",
            "profiler",
            "queue",
            "shed_total",
            "status",
            "uptime_ms",
            "uptime_seconds",
        ],
        "{health}"
    );

    daemon.shutdown();
    daemon.wait();
}

#[test]
fn slow_ms_zero_retains_trace_and_provenance() {
    let _cache = solver_cache();
    let dir = TempDir::new("debug-slow0");
    let daemon = default_daemon(
        dir.path(),
        Config {
            slow_ms: Some(0), // every job is "slow": trigger on all
            slow_dir: dir.join("slow"),
            ..Config::default()
        },
    );
    // Cold solver caches so the job actually runs tier-2 queries whose
    // provenance can be buffered and retained.
    omega::reset_sat_cache();
    let mut conn = connect(daemon.jobs_addr());
    let header = submit(&mut conn, "gen kernel=gemm n=10 id=slow-gemm");
    assert!(header.starts_with("ok "), "{header}");

    let job_dir = dir.join("slow").join("slow-gemm");
    assert!(
        job_dir.join("trace.json").is_file(),
        "slow job must retain its span trace"
    );
    let dumps = std::fs::read_dir(&job_dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "omega"))
        .count();
    assert!(dumps >= 1, "cold-cache slow job must retain .omega dumps");
    // Every kept dump reproduces its recorded verdict standalone.
    for entry in std::fs::read_dir(&job_dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|x| x == "omega") {
            let r = omega::provenance::replay_file(&path)
                .unwrap_or_else(|e| panic!("{}: {e:?}", path.display()));
            assert!(
                r.matched,
                "{}: expected {}, got {}",
                path.display(),
                r.expected,
                r.got
            );
        }
    }

    // The report records the retention; the log explains the trigger.
    let (_, body) = http_get(daemon.http_addr(), "/debug/requests");
    assert!(body.contains("\"slow\":true"), "{body}");
    assert!(body.contains("\"retained\":"), "{body}");
    let log = std::fs::read_to_string(dir.join("log.jsonl")).unwrap();
    let slow_line = log
        .lines()
        .find(|l| l.contains("\"event\":\"slow_query\""))
        .expect("slow_query log record");
    assert!(
        slow_line.contains("\"reason\":\"threshold\""),
        "{slow_line}"
    );
    assert!(
        slow_line.contains(&format!("\"dumps\":{dumps},\"dumps_dropped\":0")),
        "{slow_line}"
    );
    let (_, metrics) = http_get(daemon.http_addr(), "/metrics");
    assert!(
        metrics.contains("codegend_jobs_slow_total{reason=\"threshold\"} 1"),
        "{metrics}"
    );

    daemon.shutdown();
    daemon.wait();
}

#[test]
fn fast_jobs_below_threshold_retain_nothing() {
    let _cache = solver_cache();
    let dir = TempDir::new("debug-fast");
    let daemon = default_daemon(
        dir.path(),
        Config {
            slow_ms: Some(60_000), // nothing here takes a minute
            slow_dir: dir.join("slow"),
            ..Config::default()
        },
    );
    let mut conn = connect(daemon.jobs_addr());
    let header = submit(&mut conn, "gen kernel=gemv n=8 id=fast-gemv");
    assert!(header.starts_with("ok "), "{header}");

    let retained = std::fs::read_dir(dir.join("slow"))
        .map(|d| d.count())
        .unwrap_or(0);
    assert_eq!(retained, 0, "fast healthy jobs must leave no artifacts");
    let (_, body) = http_get(daemon.http_addr(), "/debug/requests");
    assert!(body.contains("\"slow\":false"), "{body}");
    assert!(!body.contains("\"retained\":"), "{body}");
    let log = std::fs::read_to_string(dir.join("log.jsonl")).unwrap();
    assert!(!log.contains("slow_query"), "{log}");

    daemon.shutdown();
    daemon.wait();
}

#[test]
fn errors_and_degrades_trigger_retention_regardless_of_latency() {
    let _cache = solver_cache();
    let dir = TempDir::new("debug-trig");
    let daemon = default_daemon(
        dir.path(),
        Config {
            slow_ms: Some(60_000),
            slow_dir: dir.join("slow"),
            ..Config::default()
        },
    );
    let mut conn = connect(daemon.jobs_addr());

    // An erroring job is retained even though it was fast.
    let header = submit(&mut conn, "gen kernel=nosuch id=trig-err");
    assert!(header.starts_with("err "), "{header}");
    assert!(
        dir.join("slow")
            .join("trig-err")
            .join("trace.json")
            .is_file(),
        "errored job must retain its trace"
    );
    let log = std::fs::read_to_string(dir.join("log.jsonl")).unwrap();
    assert!(
        log.lines()
            .any(|l| l.contains("\"event\":\"slow_query\"") && l.contains("\"reason\":\"error\"")),
        "{log}"
    );
    daemon.shutdown();
    daemon.wait();

    // A degraded job (deadline already expired at admission) is retained
    // too: sound approximate output, but exactly what tail sampling is
    // for.
    let dir2 = TempDir::new("debug-trig-deg");
    let daemon = default_daemon(
        dir2.path(),
        Config {
            slow_ms: Some(60_000),
            slow_dir: dir2.join("slow"),
            deadline: Some(Duration::from_millis(0)),
            ..Config::default()
        },
    );
    // Cold caches: a warm memo cache answers every query exactly (cached
    // results are always exact) and the deadline would never be consulted.
    omega::reset_sat_cache();
    let mut conn = connect(daemon.jobs_addr());
    let header = submit(&mut conn, "gen kernel=qr n=9 id=trig-deg");
    assert!(header.starts_with("ok "), "{header}");
    assert!(header.contains("certainty=approximate"), "{header}");
    assert!(
        dir2.join("slow")
            .join("trig-deg")
            .join("trace.json")
            .is_file(),
        "degraded job must retain its trace"
    );
    let log = std::fs::read_to_string(dir2.join("log.jsonl")).unwrap();
    assert!(
        log.lines().any(|l| {
            l.contains("\"event\":\"slow_query\"") && l.contains("\"reason\":\"degraded\"")
        }),
        "{log}"
    );
    daemon.shutdown();
    daemon.wait();
}
