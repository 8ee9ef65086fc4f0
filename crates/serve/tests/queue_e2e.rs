//! End-to-end tests for the service core: batch requests streaming
//! per-space replies, the queue timeout, the HTTP/JSON job API (`POST
//! /v1/gen`, `POST /v1/batch`) including shedding as `503`, and the
//! request shape the repository benchmark sends.

mod common;

use common::{batch_code, TempDir};
use serve::{spawn, Config, LogTarget};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

struct Reply {
    header: String,
    fields: HashMap<String, String>,
    payload: Vec<u8>,
}

fn read_reply(conn: &mut BufReader<TcpStream>) -> Reply {
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

fn roundtrip(conn: &mut BufReader<TcpStream>, line: &str) -> Reply {
    conn.get_mut()
        .write_all(format!("{line}\n").as_bytes())
        .unwrap();
    read_reply(conn)
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

fn http_post(addr: SocketAddr, path: &str, body: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").unwrap();
    (head.to_owned(), body.to_owned())
}

#[test]
fn batch_streams_per_space_replies_in_order() {
    let dir = TempDir::new("queue");
    let daemon = spawn(Config {
        jobs_addr: "127.0.0.1:0".into(),
        http_addr: "127.0.0.1:0".into(),
        log: LogTarget::File(dir.join("batch.jsonl")),
        ..Config::default()
    })
    .unwrap();
    let mut conn = connect(daemon.jobs_addr());

    // Two good spaces around one bad one: per-space isolation means the
    // bad space errors while its neighbors still generate.
    let r = roundtrip(
        &mut conn,
        "batch id=b1 space={ [i] : 0 <= i < 4 } ; { not a set } ; { [i] : i = 2 }",
    );
    assert_eq!(r.header, "batch id=b1 count=3");
    let first = read_reply(&mut conn);
    assert!(first.header.starts_with("ok "), "{}", first.header);
    assert_eq!(first.fields["id"], "b1#0");
    assert!(String::from_utf8(first.payload).unwrap().contains("for"));
    let second = read_reply(&mut conn);
    assert!(second.header.starts_with("err "), "{}", second.header);
    assert_eq!(second.fields["id"], "b1#1");
    let third = read_reply(&mut conn);
    assert!(third.header.starts_with("ok "), "{}", third.header);
    assert_eq!(third.fields["id"], "b1#2");

    // The batch kind is counted per space; the queue histograms observe
    // the whole batch as one job.
    let (_, metrics) = http_get(daemon.http_addr(), "/metrics");
    assert!(
        metrics.contains("codegend_requests_total{kind=\"batch\",status=\"ok\"} 2"),
        "{metrics}"
    );
    assert!(
        metrics.contains("codegend_requests_total{kind=\"batch\",status=\"err\"} 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("codegend_service_seconds_count 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("codegend_queue_wait_seconds_count 1"),
        "{metrics}"
    );

    daemon.shutdown();
    daemon.wait();
}

#[test]
fn queue_timeout_answers_stale_jobs_with_an_error() {
    let dir = TempDir::new("queue");
    let daemon = spawn(Config {
        jobs_addr: "127.0.0.1:0".into(),
        http_addr: "127.0.0.1:0".into(),
        queue_timeout: Some(Duration::ZERO),
        log: LogTarget::File(dir.join("timeout.jsonl")),
        ..Config::default()
    })
    .unwrap();
    let mut conn = connect(daemon.jobs_addr());
    let r = roundtrip(&mut conn, "gen kernel=gemv n=8");
    assert!(r.header.starts_with("err "), "{}", r.header);
    assert!(r.header.contains("timed out in queue"), "{}", r.header);
    let (_, metrics) = http_get(daemon.http_addr(), "/metrics");
    assert!(
        metrics.contains("codegend_jobs_timeout_total 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("codegend_requests_total{kind=\"kernel\",status=\"timeout\"} 1"),
        "{metrics}"
    );
    daemon.shutdown();
    daemon.wait();
}

#[test]
fn http_json_api_gen_batch_and_errors() {
    let dir = TempDir::new("queue");
    let daemon = spawn(Config {
        jobs_addr: "127.0.0.1:0".into(),
        http_addr: "127.0.0.1:0".into(),
        log: LogTarget::File(dir.join("http.jsonl")),
        ..Config::default()
    })
    .unwrap();
    let addr = daemon.http_addr();

    // One kernel job over JSON.
    let (head, body) = http_post(
        addr,
        "/v1/gen",
        r#"{"kernel":"gemv","n":8,"id":"h-1","client":"alice"}"#,
    );
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(
        body.starts_with("{\"id\":\"h-1\",\"source\":\"gemv\""),
        "{body}"
    );
    assert!(body.contains("\"certainty\":\"exact\""), "{body}");
    assert!(body.contains("\"code\":\""), "{body}");

    // A job-level error is still a 200 with an error field (the request
    // was well-formed; the generation failed).
    let (head, body) = http_post(addr, "/v1/gen", r#"{"kernel":"nosuch"}"#);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(body.contains("\"error\":\"unknown kernel"), "{body}");

    // Batch streams chunked NDJSON: a header object, then one object per
    // space in order.
    let (head, body) = http_post(
        addr,
        "/v1/batch",
        r#"{"id":"hb","spaces":["{ [i] : 0 <= i < 4 }","{ nope }","{ [i] : i = 1 }"]}"#,
    );
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("Transfer-Encoding: chunked"), "{head}");
    assert!(body.contains("{\"id\":\"hb\",\"count\":3}"), "{body}");
    assert!(body.contains("\"id\":\"hb#0\""), "{body}");
    assert!(
        body.contains("\"id\":\"hb#1\",\"source\":\"adhoc[1]\",\"error\""),
        "{body}"
    );
    assert!(body.contains("\"id\":\"hb#2\""), "{body}");
    let p0 = body.find("hb#0").unwrap();
    let p1 = body.find("hb#1").unwrap();
    let p2 = body.find("hb#2").unwrap();
    assert!(p0 < p1 && p1 < p2, "replies out of order: {body}");
    // Chunked framing terminates properly.
    assert!(body.ends_with("0\r\n\r\n"), "{body:?}");

    // Malformed bodies are 400s.
    for (path, bad) in [
        ("/v1/gen", "not json"),
        ("/v1/gen", "{}"),
        ("/v1/batch", r#"{"spaces":[]}"#),
        ("/v1/batch", r#"{"kernel":"gemv"}"#),
    ] {
        let (head, body) = http_post(addr, path, bad);
        assert!(head.starts_with("HTTP/1.1 400"), "{path} {bad}: {head}");
        assert!(body.contains("\"error\""), "{body}");
    }

    // Unknown POST path.
    let (head, _) = http_post(addr, "/v1/nope", "{}");
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");

    daemon.shutdown();
    daemon.wait();
}

#[test]
fn http_api_sheds_with_503_and_retry_after() {
    let dir = TempDir::new("queue");
    let daemon = spawn(Config {
        jobs_addr: "127.0.0.1:0".into(),
        http_addr: "127.0.0.1:0".into(),
        queue_depth: 0,
        log: LogTarget::File(dir.join("shed503.jsonl")),
        ..Config::default()
    })
    .unwrap();
    let (head, body) = http_post(daemon.http_addr(), "/v1/gen", r#"{"kernel":"gemv","n":8}"#);
    assert!(head.starts_with("HTTP/1.1 503"), "{head}");
    assert!(head.contains("Retry-After: 1"), "{head}");
    assert!(body.contains("\"error\":\"busy\""), "{body}");
    assert!(body.contains("\"capacity\":0"), "{body}");
    daemon.shutdown();
    daemon.wait();
}

/// The request `perfbench`'s `daemon_table1` workload sends, byte for
/// byte: its `client` key is not a field of the API and must be ignored,
/// not refused. The line protocol, by contrast, refuses the retired
/// scheduling fields by name.
#[test]
fn benchmark_request_shape_is_served_and_retired_fields_are_refused() {
    let dir = TempDir::new("queue");
    let daemon = spawn(Config {
        jobs_addr: "127.0.0.1:0".into(),
        http_addr: "127.0.0.1:0".into(),
        log: LogTarget::File(dir.join("shape.jsonl")),
        ..Config::default()
    })
    .unwrap();
    let (head, body) = http_post(
        daemon.http_addr(),
        "/v1/gen",
        r#"{"kernel":"gemv","n":64,"client":"c0"}"#,
    );
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let reply = serve::json::parse(&body).unwrap();
    let kernel = chill::recipes::all(64)
        .into_iter()
        .find(|k| k.name == "gemv")
        .unwrap();
    assert_eq!(
        reply.get("code").and_then(|v| v.as_str()),
        Some(batch_code(&kernel).as_str()),
        "{body}"
    );

    let mut conn = connect(daemon.jobs_addr());
    let r = roundtrip(&mut conn, "gen kernel=gemv prio=bulk");
    assert!(r.header.starts_with("err "), "{}", r.header);
    assert!(r.header.contains("unknown field \"prio\""), "{}", r.header);

    daemon.shutdown();
    daemon.wait();
}
