//! The HTTP responder's limits: a request head must end within 8 KiB,
//! and a whole request must arrive within one 10 s deadline, however
//! slowly its bytes trickle in.

mod common;

use common::TempDir;
use serve::{spawn, Config, Daemon, LogTarget};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn daemon(dir: &TempDir) -> Daemon {
    spawn(Config {
        http_addr: "127.0.0.1:0".into(),
        log: LogTarget::File(dir.join("log.jsonl")),
        ..Config::default()
    })
    .unwrap()
}

#[test]
fn an_unterminated_head_is_never_served() {
    let dir = TempDir::new("http-head");
    let daemon = daemon(&dir);
    let mut stream = TcpStream::connect(daemon.http_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // 9 KiB of a valid request head that never reaches its blank line.
    let mut head = String::from("GET /metrics HTTP/1.1\r\nHost: x\r\nX-Pad: ");
    head.push_str(&"a".repeat(9 * 1024 - head.len()));
    let _ = stream.write_all(head.as_bytes());
    let mut response = Vec::new();
    // The server answers 431 and closes; a reset is as good as an answer.
    let _ = stream.read_to_end(&mut response);
    let response = String::from_utf8_lossy(&response);
    assert!(
        !response.starts_with("HTTP/1.1 200") && !response.starts_with("HTTP/1.1 404"),
        "{response}"
    );
    daemon.shutdown();
    daemon.wait();
}

#[test]
fn a_trickling_client_is_closed_at_the_request_deadline() {
    let dir = TempDir::new("http-slow");
    let daemon = daemon(&dir);
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(daemon.http_addr()).unwrap();
    let mut reader = stream.try_clone().unwrap();
    // One byte a second, never finishing the head: each byte alone would
    // reset a per-read timeout.
    let writer = std::thread::spawn(move || {
        for b in b"GET /metrics HTTP/1.1\r\nX-Slow: ".iter().cycle().take(30) {
            if stream.write_all(&[*b]).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_secs(1));
        }
    });
    reader
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut buf = Vec::new();
    let _ = reader.read_to_end(&mut buf);
    let closed_after = t0.elapsed();
    assert!(buf.is_empty(), "{}", String::from_utf8_lossy(&buf));
    assert!(
        closed_after >= Duration::from_secs(9) && closed_after <= Duration::from_secs(12),
        "closed after {closed_after:?}"
    );
    writer.join().unwrap();
    daemon.shutdown();
    daemon.wait();
}
