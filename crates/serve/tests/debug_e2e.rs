//! End-to-end tests of the introspection surface: the `/debug/*`
//! endpoints, the per-job QueryReport wide events, and `--slow-ms`
//! tail sampling — a daemon with *default* flags (no `--slow-ms`, no
//! trace file) must still answer `/debug/requests` with populated
//! reports.

mod common;

use common::{field, gen, http_get, TempDir};
use serve::json::Json;
use serve::{spawn, Config, LogTarget};
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

/// The sorted top-level keys of a JSON object body.
fn top_level_keys(body: &str) -> Vec<String> {
    match serve::json::parse(body) {
        Ok(Json::Obj(m)) => m.into_keys().collect(),
        other => panic!("not a JSON object: {other:?}: {body}"),
    }
}

fn default_daemon(dir: &std::path::Path, cfg: Config) -> serve::Daemon {
    spawn(Config {
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
    for name in ["gemv", "qr", "swim", "gemm", "lu"] {
        let r = gen(
            daemon.http_addr(),
            &format!(r#"{{"kernel":"{name}","n":12,"id":"dbg-{name}"}}"#),
        );
        assert!(!field(&r, "code").is_empty(), "{r:?}");
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
fn debug_reports_match_the_batch_table1_rows() {
    let _cache = solver_cache();
    let dir = TempDir::new("debug-batch");
    let daemon = default_daemon(dir.path(), Config::default());
    let n = 16;
    let bench_harness::Tool::CodeGenPlus { effort, .. } = bench_harness::Tool::codegenplus() else {
        unreachable!("Tool::codegenplus is a CodeGen+ tool")
    };
    let kernels = chill::recipes::all(n);
    for k in &kernels {
        // No effort in the body: the daemon's default must be the batch one.
        gen(
            daemon.http_addr(),
            &format!(r#"{{"kernel":"{}","n":{n},"id":"row-{}"}}"#, k.name, k.name),
        );
    }
    let (_, body) = http_get(daemon.http_addr(), "/debug/requests");
    let reports = serve::json::parse(&body).unwrap_or_else(|e| panic!("{e}: {body}"));
    let reports = reports.as_arr().expect("/debug/requests is an array");
    for k in &kernels {
        let row = bench_harness::compare(k).cgplus;
        let report = reports
            .iter()
            .find(|r| field(r, "id") == format!("row-{}", k.name))
            .unwrap_or_else(|| panic!("no report for {}: {body}", k.name));
        let num = |key: &str| report.get(key).and_then(Json::as_u64);
        assert_eq!(num("lines"), Some(row.lines as u64), "{}: {body}", k.name);
        assert_eq!(num("bytes"), Some(row.bytes as u64), "{}: {body}", k.name);
        assert_eq!(num("effort"), Some(effort as u64), "{}: {body}", k.name);
        assert_eq!(
            field(report, "certainty"),
            row.certainty,
            "{}: {body}",
            k.name
        );
    }
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
    let r = gen(
        daemon.http_addr(),
        r#"{"kernel":"gemm","n":10,"id":"slow-gemm"}"#,
    );
    assert!(!field(&r, "code").is_empty(), "{r:?}");

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
    let r = gen(
        daemon.http_addr(),
        r#"{"kernel":"gemv","n":8,"id":"fast-gemv"}"#,
    );
    assert!(!field(&r, "code").is_empty(), "{r:?}");

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
    // An erroring job is retained even though it was fast.
    let r = gen(daemon.http_addr(), r#"{"kernel":"nosuch","id":"trig-err"}"#);
    assert!(!field(&r, "error").is_empty(), "{r:?}");
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
    let r = gen(
        daemon.http_addr(),
        r#"{"kernel":"qr","n":9,"id":"trig-deg"}"#,
    );
    assert!(!field(&r, "code").is_empty(), "{r:?}");
    assert!(field(&r, "certainty").starts_with("approximate"), "{r:?}");
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
