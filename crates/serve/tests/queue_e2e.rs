//! End-to-end tests for the service core over the HTTP/JSON job API
//! (`POST /v1/gen`, `POST /v1/batch`): batch requests streaming
//! per-space replies with the code `/v1/gen` returns, the queue timeout,
//! malformed bodies, and the request shape the repository benchmark
//! sends.

mod common;

use common::{batch_code, field, gen, http_get, http_post, TempDir};
use serve::json::Json;
use serve::{spawn, Config, LogTarget};
use std::time::Duration;

/// The JSON objects of a chunked NDJSON batch body, in order: every
/// object is one line, every chunk-size line is not an object.
fn ndjson(body: &str) -> Vec<Json> {
    body.lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| serve::json::parse(l).unwrap_or_else(|e| panic!("{e}: {l}")))
        .collect()
}

#[test]
fn batch_streams_per_space_replies_in_order() {
    let dir = TempDir::new("queue");
    let daemon = spawn(Config {
        http_addr: "127.0.0.1:0".into(),
        log: LogTarget::File(dir.join("batch.jsonl")),
        ..Config::default()
    })
    .unwrap();

    // Two good spaces around one bad one: per-space isolation means the
    // bad space errors while its neighbors still generate.
    let (head, body) = http_post(
        daemon.http_addr(),
        "/v1/batch",
        r#"{"id":"b1","spaces":["{ [i] : 0 <= i < 4 }","{ not a set }","{ [i] : i = 2 }"]}"#,
    );
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("Transfer-Encoding: chunked"), "{head}");
    // Chunked framing terminates properly.
    assert!(body.ends_with("0\r\n\r\n"), "{body:?}");
    let replies = ndjson(&body);
    assert_eq!(replies.len(), 4, "{body}");
    assert_eq!(field(&replies[0], "id"), "b1");
    assert_eq!(replies[0].get("count").and_then(Json::as_u64), Some(3));
    let ids: Vec<&str> = replies[1..].iter().map(|r| field(r, "id")).collect();
    assert_eq!(ids, ["b1#0", "b1#1", "b1#2"]);
    assert!(field(&replies[1], "code").contains("for"), "{body}");
    assert_eq!(field(&replies[2], "source"), "adhoc[1]");
    assert!(!field(&replies[2], "error").is_empty(), "{body}");
    assert!(!field(&replies[3], "code").is_empty(), "{body}");

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

/// A batch space is an independent generation: each batch reply's code
/// is byte for byte what `/v1/gen` returns for that space alone, at every
/// effort. Over `load_driver.py`'s spaces and one with a congruence.
#[test]
fn batch_space_generates_the_code_of_v1_gen() {
    const SPACES: [&str; 5] = [
        "[n] -> { [i] : 0 <= i < n }",
        "[n] -> { [i,j] : 0 <= i < n and 0 <= j < i }",
        "[n] -> { [i,j] : 0 <= i < n and 0 <= j < n and i + j < n }",
        "[n,m] -> { [i,j] : 0 <= i < n and 0 <= j < m }",
        "[n] -> { [i,j] : 0 <= i < n and 0 <= j < n and exists(a : j = 3a + i) }",
    ];
    let dir = TempDir::new("queue");
    let daemon = spawn(Config {
        http_addr: "127.0.0.1:0".into(),
        log: LogTarget::File(dir.join("same-code.jsonl")),
        ..Config::default()
    })
    .unwrap();
    let addr = daemon.http_addr();
    let quoted: Vec<String> = SPACES.iter().map(|s| format!("\"{s}\"")).collect();
    for effort in 0..=2 {
        let (head, body) = http_post(
            addr,
            "/v1/batch",
            &format!(r#"{{"spaces":[{}],"effort":{effort}}}"#, quoted.join(",")),
        );
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let replies = ndjson(&body);
        assert_eq!(replies.len(), 1 + SPACES.len(), "{body}");
        for (space, batch) in quoted.iter().zip(&replies[1..]) {
            let single = gen(
                addr,
                &format!(r#"{{"spaces":[{space}],"effort":{effort}}}"#),
            );
            let code = field(&single, "code");
            assert!(!code.is_empty(), "effort {effort}, {space}: {single:?}");
            assert_eq!(
                field(batch, "code"),
                code,
                "effort {effort}, {space}: batch and /v1/gen differ"
            );
        }
    }
    daemon.shutdown();
    daemon.wait();
}

#[test]
fn queue_timeout_answers_stale_jobs_with_an_error() {
    let dir = TempDir::new("queue");
    let daemon = spawn(Config {
        http_addr: "127.0.0.1:0".into(),
        queue_timeout: Some(Duration::ZERO),
        log: LogTarget::File(dir.join("timeout.jsonl")),
        ..Config::default()
    })
    .unwrap();
    let r = gen(daemon.http_addr(), r#"{"kernel":"gemv","n":8}"#);
    assert!(field(&r, "error").contains("timed out in queue"), "{r:?}");
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
fn http_json_api_gen_and_errors() {
    let dir = TempDir::new("queue");
    let daemon = spawn(Config {
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

/// The request `perfbench`'s `daemon_table1` workload sends, byte for
/// byte: its `client` key is not a field of the API and must be ignored,
/// not refused.
#[test]
fn benchmark_request_shape_is_served() {
    let dir = TempDir::new("queue");
    let daemon = spawn(Config {
        http_addr: "127.0.0.1:0".into(),
        log: LogTarget::File(dir.join("shape.jsonl")),
        ..Config::default()
    })
    .unwrap();
    let r = gen(
        daemon.http_addr(),
        r#"{"kernel":"gemv","n":64,"client":"c0"}"#,
    );
    let kernel = chill::recipes::by_name("gemv", 64).unwrap();
    assert_eq!(field(&r, "code"), batch_code(&kernel), "{r:?}");

    daemon.shutdown();
    daemon.wait();
}
