//! Helpers shared by the serve end-to-end tests. Each test crate uses a
//! subset of them.
#![allow(dead_code)]

use serve::json::Json;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// A fresh directory under the system temp dir, unique per call (pid,
/// clock and a per-process counter, so parallel tests and concurrent
/// runs never share one) and removed with its contents on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir = std::env::temp_dir().join(format!(
            "codegend-{tag}-{}-{nanos}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    pub fn join(&self, rel: impl AsRef<Path>) -> PathBuf {
        self.0.join(rel)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Batch-side reference: the kernel's statements through the same
/// pipeline as `table1`, no daemon involved, newline-terminated like a
/// daemon reply.
pub fn batch_code(kernel: &chill::Kernel) -> String {
    let stmts = bench_harness::statements_of(kernel);
    let g = codegenplus::CodeGen::new()
        .statements(stmts)
        .effort(1)
        .generate()
        .expect("batch generation");
    let mut code = g.to_c();
    if !code.ends_with('\n') {
        code.push('\n');
    }
    code
}

/// One HTTP/1.1 exchange on a fresh connection (the daemon answers one
/// request per connection, then closes): the response head and body.
fn http(addr: SocketAddr, request: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").unwrap();
    (head.to_owned(), body.to_owned())
}

pub fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    http(addr, &format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n"))
}

pub fn http_post(addr: SocketAddr, path: &str, body: &str) -> (String, String) {
    http(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// `POST /v1/gen`: the parsed JSON reply of a well-formed job, which is
/// a `200` whether the generation succeeded (`code`) or not (`error`).
pub fn gen(addr: SocketAddr, body: &str) -> Json {
    let (head, reply) = http_post(addr, "/v1/gen", body);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}: {reply}");
    serve::json::parse(&reply).unwrap_or_else(|e| panic!("{e}: {reply}"))
}

/// The string field `key` of a JSON reply, or `""` when absent.
pub fn field<'a>(reply: &'a Json, key: &str) -> &'a str {
    reply.get(key).and_then(Json::as_str).unwrap_or("")
}

/// Opens a connection that sends part of a request head and never ends
/// it: it holds a worker, or a queue slot, until dropped or until the
/// daemon's 10 s request deadline.
pub fn half_open(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"POST /v1/gen HTTP/1.1\r\nHost: x\r\n")
        .unwrap();
    stream
}

/// Holds every worker and queue slot of a daemon with `workers` workers
/// and `queue_depth` slots: one half-open connection per worker, a pause
/// so that each worker takes one, then one per slot. Connections are
/// accepted in the order they were opened, so one opened after these is
/// shed.
pub fn hold_pool(addr: SocketAddr, workers: usize, queue_depth: usize) -> Vec<TcpStream> {
    let mut held: Vec<TcpStream> = (0..workers).map(|_| half_open(addr)).collect();
    std::thread::sleep(Duration::from_millis(200));
    held.extend((0..queue_depth).map(|_| half_open(addr)));
    held
}

/// Ends each held connection's request head and reads the answer, in the
/// order they were opened, so that every worker and queue slot is free on
/// return. (A shed connection was answered already; its errors are moot.)
pub fn release(held: Vec<TcpStream>) {
    for mut stream in held {
        let _ = stream.write_all(b"\r\n");
        let _ = stream.read_to_end(&mut Vec::new());
    }
}
