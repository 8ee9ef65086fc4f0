//! End-to-end daemon tests: boot `codegend` in-process on ephemeral
//! ports, drive the line protocol and the HTTP endpoints over real
//! sockets, and pin the acceptance criterion — concurrent daemon
//! responses are byte-identical to batch CodeGen+ output.

mod common;

use common::{batch_code, TempDir};
use serve::{spawn, Config, LogTarget};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One protocol exchange: send `line`, read the response header and (for
/// `ok`) the byte-counted payload.
struct Reply {
    header: String,
    fields: HashMap<String, String>,
    payload: Vec<u8>,
}

fn roundtrip(conn: &mut BufReader<TcpStream>, line: &str) -> Reply {
    conn.get_mut()
        .write_all(format!("{line}\n").as_bytes())
        .unwrap();
    let mut header = String::new();
    conn.read_line(&mut header).unwrap();
    let header = header.trim_end().to_owned();
    let fields: HashMap<String, String> = header
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.split_once('='))
        .map(|(k, v)| (k.to_owned(), v.to_owned()))
        .collect();
    let mut payload = Vec::new();
    if header.starts_with("ok ") {
        let bytes: usize = fields["bytes"].parse().unwrap();
        payload.resize(bytes, 0);
        conn.read_exact(&mut payload).unwrap();
    }
    Reply {
        header,
        fields,
        payload,
    }
}

fn connect(addr: SocketAddr) -> BufReader<TcpStream> {
    BufReader::new(TcpStream::connect(addr).unwrap())
}

fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").unwrap();
    (head.to_owned(), body.to_owned())
}

#[test]
fn concurrent_kernel_jobs_are_byte_identical_to_batch() {
    let dir = TempDir::new("e2e-main");
    let daemon = spawn(Config {
        jobs_addr: "127.0.0.1:0".into(),
        http_addr: "127.0.0.1:0".into(),
        // Every job is "slow": each keeps its trace and provenance.
        slow_ms: Some(0),
        slow_dir: dir.join("slow"),
        log: LogTarget::File(dir.join("requests.jsonl")),
        ..Config::default()
    })
    .unwrap();
    let n = 16;

    // All five Table 1 kernels concurrently, at 2 worker threads each —
    // the answer must still be a pure function of the job.
    let expected: Vec<(String, String)> = chill::recipes::all(n)
        .iter()
        .map(|k| (k.name.to_owned(), batch_code(k)))
        .collect();
    // Cold cache for the daemon side: the batch run above warmed the
    // process-wide memo caches, which would let every daemon job answer
    // from tier 1 and skip the tier-2 provenance dumps this test checks.
    omega::reset_sat_cache();
    let jobs_addr = daemon.jobs_addr();
    let handles: Vec<_> = expected
        .iter()
        .cloned()
        .map(|(name, want)| {
            std::thread::spawn(move || {
                let mut conn = connect(jobs_addr);
                let r = roundtrip(
                    &mut conn,
                    &format!("gen kernel={name} n={n} effort=1 threads=2 id=e2e-{name}"),
                );
                assert!(r.header.starts_with("ok "), "unexpected reply {}", r.header);
                assert_eq!(r.fields["id"], format!("e2e-{name}"));
                assert_eq!(r.fields["certainty"], "exact");
                assert_eq!(
                    String::from_utf8(r.payload).unwrap(),
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
fn protocol_control_adhoc_and_error_paths() {
    let dir = TempDir::new("e2e-proto");
    let daemon = spawn(Config {
        jobs_addr: "127.0.0.1:0".into(),
        http_addr: "127.0.0.1:0".into(),
        log: LogTarget::File(dir.join("log.jsonl")),
        ..Config::default()
    })
    .unwrap();
    let mut conn = connect(daemon.jobs_addr());

    let r = roundtrip(&mut conn, "ping");
    assert_eq!(r.header, "pong");

    // Ad-hoc iteration space, daemon-assigned id.
    let r = roundtrip(&mut conn, "gen space=[n] -> { [i] : 0 <= i < n }");
    assert!(r.header.starts_with("ok "), "{}", r.header);
    assert!(r.fields["id"].starts_with("r-"));
    assert_eq!(r.fields["source"], "adhoc[1]");
    let code = String::from_utf8(r.payload).unwrap();
    assert!(code.contains("for"), "{code}");

    // Unknown kernel and malformed lines produce err, connection stays up.
    let r = roundtrip(&mut conn, "gen kernel=nosuch");
    assert!(r.header.starts_with("err "), "{}", r.header);
    assert!(r.header.contains("unknown kernel"));
    let r = roundtrip(&mut conn, "what even");
    assert!(r.header.starts_with("err "), "{}", r.header);

    // A bad set description errors without killing the daemon.
    let r = roundtrip(&mut conn, "gen space={ not a set }");
    assert!(r.header.starts_with("err "), "{}", r.header);
    let r = roundtrip(&mut conn, "ping");
    assert_eq!(r.header, "pong");

    daemon.shutdown();
    daemon.wait();
}

#[test]
fn admission_control_sheds_jobs_over_the_cap() {
    let dir = TempDir::new("e2e-shed");
    let daemon = spawn(Config {
        jobs_addr: "127.0.0.1:0".into(),
        http_addr: "127.0.0.1:0".into(),
        queue_depth: 0,
        log: LogTarget::File(dir.join("log.jsonl")),
        ..Config::default()
    })
    .unwrap();
    let mut conn = connect(daemon.jobs_addr());
    let r = roundtrip(&mut conn, "gen kernel=gemv n=8");
    assert!(r.header.starts_with("busy "), "{}", r.header);
    assert_eq!(r.fields["max"], "0");
    let (_, metrics) = http_get(daemon.http_addr(), "/metrics");
    assert!(metrics.contains("codegend_jobs_shed_total 1"), "{metrics}");
    assert!(metrics.contains("codegend_requests_total{kind=\"kernel\",status=\"busy\"} 1"));
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
            jobs_addr: "127.0.0.1:0".into(),
            http_addr: "127.0.0.1:0".into(),
            workers,
            queue_depth,
            log: LogTarget::File(dir.join("log.jsonl")),
            ..Config::default()
        })
        .unwrap();
        let jobs_addr = daemon.jobs_addr();
        let handles: Vec<_> = expected
            .iter()
            .cloned()
            .map(|(name, want)| {
                std::thread::spawn(move || {
                    let mut conn = connect(jobs_addr);
                    let r = roundtrip(&mut conn, &format!("gen kernel={name} n={n} effort=1"));
                    assert!(r.header.starts_with("ok "), "unexpected reply {}", r.header);
                    assert_eq!(
                        String::from_utf8(r.payload).unwrap(),
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
