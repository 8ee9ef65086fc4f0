//! A std-only HTTP/1.1 responder: the observability endpoints
//! (`/metrics`, `/healthz`, the `/debug/*` introspection surface) and
//! the JSON job API (`POST /v1/gen`, `POST /v1/batch`).
//!
//! Deliberately minimal: no framework, no keep-alive — each connection
//! gets one request (head capped at 8 KiB, body at 4 MiB), one
//! response, `Connection: close`. GET responses are
//! `Content-Length`-framed; `POST /v1/batch` streams its per-space
//! replies as chunked NDJSON, one object per chunk, so a client sees
//! early results while later spaces still generate. That is all a
//! Prometheus scraper, a `curl` health check, or a line-at-a-time JSON
//! client needs, and it keeps the daemon's dependency set empty.
//!
//! `POST /v1/gen` body (one job; `kernel`/`n` or `spaces`):
//!
//! ```json
//! {"kernel": "gemm", "n": 64, "effort": 1, "id": "x-1"}
//! ```
//!
//! `POST /v1/batch` body (independent single-space generations):
//!
//! ```json
//! {"spaces": ["[n] -> { [i] : 0 <= i < n }", "{ [i] : i = 0 }"]}
//! ```
//!
//! Keys other than these are ignored.
//!
//! Over queue capacity, both answer `503` with `Retry-After` instead of
//! queueing the connection.

use crate::json::{self, Json};
use crate::queue::{JobSource, JobSpec, TaskReply, Work, MAX_BATCH_SPACES};
use crate::{submit, Shed, State};
use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use telemetry::log::escape_into;

/// Largest accepted `POST /v1/*` body. Generous for a full-size batch
/// (4096 spaces of a few hundred bytes each) while bounding what one
/// connection can make the daemon buffer.
const MAX_BODY: usize = 4 << 20;

pub(crate) fn handle_conn(state: Arc<State>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let peer = stream
        .peer_addr()
        .map(|p| p.to_string())
        .unwrap_or_default();
    let Some((head, mut rest)) = read_head(&mut stream) else {
        return;
    };
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("").to_owned();
    let target = parts.next().unwrap_or("");
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), q.to_owned()),
        None => (target.to_owned(), String::new()),
    };
    if method == "POST" {
        let body = match read_body(&mut stream, &head, &mut rest) {
            Ok(body) => body,
            Err(msg) => {
                respond(
                    &mut stream,
                    "400 Bad Request",
                    "application/json",
                    &error_body(&msg),
                );
                return;
            }
        };
        match path.as_str() {
            "/v1/gen" => post_gen(&state, &mut stream, &peer, &body),
            "/v1/batch" => post_batch(&state, &mut stream, &peer, &body),
            _ => respond(
                &mut stream,
                "404 Not Found",
                "application/json",
                &error_body("not found (POST /v1/gen or /v1/batch)"),
            ),
        }
        return;
    }
    let (status, content_type, body) = route(&state, &method, &path, &query);
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    if method != "HEAD" {
        let _ = stream.write_all(body.as_bytes());
    }
    let _ = stream.flush();
}

/// The value of `key` in a URL query string (no percent-decoding — the
/// debug parameters are all plain tokens and integers).
fn query_param<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key).then_some(v)
    })
}

/// `GET /debug/pprof/profile?seconds=N&hz=N&mode=cpu|wall`: run one
/// profiling session for `seconds` (default 2, capped at 30) on the
/// calling connection thread, then answer collapsed-stack flamegraph
/// text. `409` while another session runs, `501` where sampling is
/// unsupported.
fn get_profile(state: &State, query: &str) -> (&'static str, &'static str, String) {
    let seconds = query_param(query, "seconds")
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(2)
        .clamp(1, 30);
    let hz = query_param(query, "hz")
        .and_then(|v| v.parse::<u32>().ok())
        .unwrap_or(99);
    let mode = match query_param(query, "mode") {
        None | Some("cpu") => telemetry::profile::Mode::Cpu,
        Some("wall") => telemetry::profile::Mode::Wall,
        Some(other) => {
            return (
                "400 Bad Request",
                "application/json",
                error_body(&format!("mode must be cpu or wall, not {other:?}")),
            );
        }
    };
    let opts = telemetry::profile::Options { mode, hz };
    match state.profile_capture(opts, Duration::from_secs(seconds)) {
        Ok(resolved) => ("200 OK", "text/plain; charset=utf-8", resolved.collapsed()),
        Err(e) => {
            let status = match e {
                telemetry::profile::ProfileError::Busy => "409 Conflict",
                telemetry::profile::ProfileError::Unsupported => "501 Not Implemented",
                _ => "500 Internal Server Error",
            };
            (
                status,
                "application/json",
                error_body(&format!("profiler: {}", e.as_str())),
            )
        }
    }
}

fn route(
    state: &State,
    method: &str,
    path: &str,
    query: &str,
) -> (&'static str, &'static str, String) {
    if method != "GET" && method != "HEAD" {
        return (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".to_owned(),
        );
    }
    match path {
        "/metrics" => (
            "200 OK",
            // The classic Prometheus text content type; the body also
            // satisfies the OpenMetrics checks in scripts/check_metrics.py.
            "text/plain; version=0.0.4; charset=utf-8",
            state.metrics_text(),
        ),
        "/healthz" => ("200 OK", "application/json", state.healthz_json()),
        "/debug/requests" => ("200 OK", "application/json", state.debug_requests_json()),
        "/debug/config" => ("200 OK", "application/json", state.debug_config_json()),
        "/debug/pprof/profile" => get_profile(state, query),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found (try /metrics, /healthz, /debug/requests, /debug/config, /debug/pprof/profile, POST /v1/gen, POST /v1/batch)\n"
                .to_owned(),
        ),
    }
}

// ---------------------------------------------------------------------------
// The JSON job API
// ---------------------------------------------------------------------------

/// `POST /v1/gen`: one job, one `Content-Length`-framed JSON reply.
fn post_gen(state: &State, stream: &mut TcpStream, peer: &str, body: &str) {
    let spec = match gen_spec_of(body) {
        Ok(spec) => spec,
        Err(msg) => {
            respond(
                stream,
                "400 Bad Request",
                "application/json",
                &error_body(&msg),
            );
            return;
        }
    };
    match submit(state, peer, Work::Single(spec)) {
        Err(shed) => respond_busy(stream, &shed),
        Ok((id, rx)) => {
            let body = task_reply_json(rx.recv().ok(), &id);
            respond(stream, "200 OK", "application/json", &body);
        }
    }
}

/// `POST /v1/batch`: one queue entry, chunked NDJSON streaming — a
/// header object, then one object per space in submission order, each
/// flushed as its own chunk as the worker finishes it.
fn post_batch(state: &State, stream: &mut TcpStream, peer: &str, body: &str) {
    let (base, spaces) = match batch_spec_of(body) {
        Ok(v) => v,
        Err(msg) => {
            respond(
                stream,
                "400 Bad Request",
                "application/json",
                &error_body(&msg),
            );
            return;
        }
    };
    let count = spaces.len();
    match submit(state, peer, Work::Batch { base, spaces }) {
        Err(shed) => respond_busy(stream, &shed),
        Ok((id, rx)) => {
            let _ = (|| -> io::Result<()> {
                write!(
                    stream,
                    "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
                     Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
                )?;
                let mut head = String::new();
                let _ = write!(head, "{{\"id\":\"");
                escape_into(&id, &mut head);
                let _ = writeln!(head, "\",\"count\":{count}}}");
                write_chunk(stream, &head)?;
                for i in 0..count {
                    let fallback = format!("{id}#{i}");
                    let mut line = task_reply_json(rx.recv().ok(), &fallback);
                    line.push('\n');
                    write_chunk(stream, &line)?;
                }
                stream.write_all(b"0\r\n\r\n")?;
                stream.flush()
            })();
        }
    }
}

/// One chunked-transfer-encoding chunk, flushed so the client sees it
/// before the next space finishes.
fn write_chunk(stream: &mut TcpStream, data: &str) -> io::Result<()> {
    write!(stream, "{:x}\r\n", data.len())?;
    stream.write_all(data.as_bytes())?;
    stream.write_all(b"\r\n")?;
    stream.flush()
}

/// Renders one worker reply as a JSON object (no trailing newline).
/// `None` means the daemon dropped the job at shutdown.
fn task_reply_json(reply: Option<TaskReply>, fallback_id: &str) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\"id\":\"");
    match reply {
        None => {
            escape_into(fallback_id, &mut out);
            out.push_str("\",\"error\":\"daemon shutting down\"}");
        }
        Some(r) => {
            escape_into(&r.id, &mut out);
            out.push_str("\",\"source\":\"");
            escape_into(&r.source, &mut out);
            match r.outcome {
                Ok(job) => {
                    let _ = write!(
                        out,
                        "\",\"lines\":{},\"codegen_ns\":{},\"compile_ns\":{},\"certainty\":\"{}\",\"bytes\":{},\"code\":\"",
                        job.lines,
                        job.codegen_ns,
                        job.compile_ns,
                        job.certainty,
                        job.code.len(),
                    );
                    escape_into(&job.code, &mut out);
                    out.push_str("\"}");
                }
                Err(msg) => {
                    out.push_str("\",\"error\":\"");
                    escape_into(&msg, &mut out);
                    out.push_str("\"}");
                }
            }
        }
    }
    out
}

fn error_body(msg: &str) -> String {
    let mut out = String::from("{\"error\":\"");
    escape_into(msg, &mut out);
    out.push_str("\"}\n");
    out
}

fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}

/// The shed answer: `503` with a `Retry-After` hint and the queue facts
/// in the body.
fn respond_busy(stream: &mut TcpStream, shed: &Shed) {
    let mut body = String::from("{\"error\":\"busy\",\"id\":\"");
    escape_into(&shed.id, &mut body);
    let _ = writeln!(
        body,
        "\",\"queued\":{},\"capacity\":{}}}",
        shed.queued, shed.capacity
    );
    let _ = write!(
        stream,
        "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\nRetry-After: 1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}

// ---------------------------------------------------------------------------
// Body parsing
// ---------------------------------------------------------------------------

/// The optional fields shared by both `/v1/*` bodies: `id` and `effort`.
fn common_fields(v: &Json) -> Result<(Option<String>, Option<usize>), String> {
    let id = match v.get("id") {
        None | Some(Json::Null) => None,
        Some(j) => {
            let s = j.as_str().ok_or("id must be a string")?;
            if s.contains(|c: char| c.is_whitespace() || c == '/') {
                return Err("id must not contain whitespace or '/'".to_owned());
            }
            Some(s.to_owned())
        }
    };
    let effort = match v.get("effort") {
        None | Some(Json::Null) => None,
        Some(j) => Some(j.as_u64().ok_or("effort must be a non-negative integer")? as usize),
    };
    Ok((id, effort))
}

fn spaces_field(v: &Json) -> Result<Option<Vec<String>>, String> {
    match v.get("spaces") {
        None | Some(Json::Null) => Ok(None),
        Some(j) => {
            let arr = j.as_arr().ok_or("spaces must be an array of strings")?;
            let mut out = Vec::with_capacity(arr.len());
            for s in arr {
                let text = s.as_str().ok_or("spaces must be an array of strings")?;
                if !text.trim().is_empty() {
                    out.push(text.to_owned());
                }
            }
            Ok(Some(out))
        }
    }
}

/// Parses a `POST /v1/gen` body into a [`JobSpec`].
fn gen_spec_of(body: &str) -> Result<JobSpec, String> {
    let v = json::parse(body)?;
    let (id, effort) = common_fields(&v)?;
    let kernel = v.get("kernel").and_then(Json::as_str);
    let spaces = spaces_field(&v)?;
    let source = match (kernel, spaces) {
        (Some(_), Some(_)) => return Err("kernel and spaces are mutually exclusive".to_owned()),
        (Some(name), None) => JobSource::Kernel {
            name: name.to_owned(),
            n: v.get("n")
                .map(|j| j.as_i64().ok_or("n must be an integer"))
                .transpose()?
                .unwrap_or(64),
        },
        (None, Some(sets)) => {
            if sets.is_empty() {
                return Err("spaces needs at least one set description".to_owned());
            }
            if v.get("n").is_some() {
                return Err("n only applies to kernel jobs".to_owned());
            }
            JobSource::Spaces(sets)
        }
        (None, None) => return Err("body needs \"kernel\" or \"spaces\"".to_owned()),
    };
    Ok(JobSpec { id, source, effort })
}

/// Parses a `POST /v1/batch` body into the shared base spec plus the
/// per-space work list.
fn batch_spec_of(body: &str) -> Result<(JobSpec, Vec<String>), String> {
    let v = json::parse(body)?;
    let (id, effort) = common_fields(&v)?;
    if v.get("kernel").is_some() {
        return Err("batch takes \"spaces\", not \"kernel\"".to_owned());
    }
    let sets = spaces_field(&v)?.ok_or("batch needs a \"spaces\" array")?;
    if sets.is_empty() {
        return Err("batch needs at least one set description".to_owned());
    }
    if sets.len() > MAX_BATCH_SPACES {
        return Err(format!(
            "batch of {} spaces exceeds the {MAX_BATCH_SPACES}-space cap",
            sets.len()
        ));
    }
    Ok((
        JobSpec {
            id,
            source: JobSource::Spaces(sets.clone()),
            effort,
        },
        sets,
    ))
}

// ---------------------------------------------------------------------------
// Request framing
// ---------------------------------------------------------------------------

/// Reads until the blank line ending the request head, or gives up at
/// 8 KiB / EOF / timeout. Returns the head as text plus any body bytes
/// already read past it.
fn read_head(stream: &mut TcpStream) -> Option<(String, Vec<u8>)> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 512];
    loop {
        if let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let rest = buf.split_off(end + 4);
            return Some((String::from_utf8_lossy(&buf).into_owned(), rest));
        }
        if buf.len() > 8192 {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
    if buf.is_empty() {
        return None;
    }
    Some((String::from_utf8_lossy(&buf).into_owned(), Vec::new()))
}

/// Reads a `Content-Length`-framed request body (capped at
/// [`MAX_BODY`]), starting from the bytes `read_head` over-read.
fn read_body(stream: &mut TcpStream, head: &str, rest: &mut Vec<u8>) -> Result<String, String> {
    let len = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse::<usize>().ok())
                .flatten()
        })
        .ok_or("missing or malformed Content-Length")?;
    if len > MAX_BODY {
        return Err(format!(
            "body of {len} bytes exceeds the {MAX_BODY}-byte cap"
        ));
    }
    let mut body = std::mem::take(rest);
    body.truncate(body.len().min(len));
    let mut chunk = [0u8; 4096];
    while body.len() < len {
        match stream.read(&mut chunk) {
            Ok(0) => return Err("body shorter than Content-Length".to_owned()),
            Ok(n) => body.extend_from_slice(&chunk[..n.min(len - body.len())]),
            Err(e) => return Err(format!("body read failed: {e}")),
        }
    }
    String::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_body_shapes() {
        let spec = gen_spec_of(r#"{"kernel":"gemm","n":32,"effort":2,"id":"x-1"}"#).unwrap();
        assert_eq!(
            spec.source,
            JobSource::Kernel {
                name: "gemm".into(),
                n: 32
            }
        );
        assert_eq!(spec.effort, Some(2));
        assert_eq!(spec.id.as_deref(), Some("x-1"));

        let spec = gen_spec_of(r#"{"spaces":["{ [i] : 0 <= i < 4 }"]}"#).unwrap();
        assert_eq!(
            spec.source,
            JobSource::Spaces(vec!["{ [i] : 0 <= i < 4 }".into()])
        );

        for bad in [
            "{}",
            r#"{"kernel":"gemm","spaces":["x"]}"#,
            r#"{"spaces":[]}"#,
            r#"{"spaces":["x"],"n":4}"#,
            r#"{"kernel":"gemm","id":"a/b"}"#,
            "not json",
        ] {
            assert!(gen_spec_of(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn batch_body_shapes() {
        let (base, spaces) =
            batch_spec_of(r#"{"spaces":["{ [i] : i = 0 }","{ [i] : i = 1 }"],"id":"b1"}"#).unwrap();
        assert_eq!(spaces.len(), 2);
        assert_eq!(base.id.as_deref(), Some("b1"));
        assert_eq!(base.source, JobSource::Spaces(spaces));

        for bad in [
            "{}",
            r#"{"spaces":[]}"#,
            r#"{"kernel":"gemm"}"#,
            r#"{"spaces":[1]}"#,
        ] {
            assert!(batch_spec_of(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn reply_rendering() {
        assert_eq!(
            task_reply_json(None, "r-1"),
            "{\"id\":\"r-1\",\"error\":\"daemon shutting down\"}"
        );
        let r = TaskReply {
            id: "b1#0".into(),
            source: "adhoc[1]".into(),
            outcome: Err("bad \"set\"".into()),
        };
        assert_eq!(
            task_reply_json(Some(r), "b1#0"),
            "{\"id\":\"b1#0\",\"source\":\"adhoc[1]\",\"error\":\"bad \\\"set\\\"\"}"
        );
    }
}
