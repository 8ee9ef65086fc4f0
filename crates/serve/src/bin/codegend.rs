//! `codegend` — the long-running codegen daemon.
//!
//! Accepts codegen jobs over HTTP/JSON (`POST /v1/gen`, `POST
//! /v1/batch`) and serves Prometheus/OpenMetrics telemetry, `/healthz`
//! and `/debug/*` on the same listener. See `crates/serve` docs and the
//! README quick-start.
//!
//! ```text
//! codegend [--http ADDR] [--effort N] [--deadline-ms MS]
//!          [--workers N] [--queue-depth N]
//!          [--queue-timeout-ms MS] [--slow-ms MS] [--slow-dir DIR]
//!          [--log FILE]
//! ```
//!
//! Defaults: HTTP on 127.0.0.1:9077, effort 1,
//! no deadline, request log as JSON lines on stderr. The daemon's
//! threads are one accept thread and the worker pool; the worker that
//! takes a connection reads its request, runs it and replies.
//! Each job's phases and solver counters are timed and counted on its
//! worker thread for the phase histograms and its query report; a span
//! collector records the job only under `--slow-ms`. `--workers` sizes
//! the pool, the only one (0 = machine cores, the default);
//! `--queue-depth` bounds how many accepted connections may wait for a
//! worker (default 256 — over it, a connection gets HTTP 503 before its
//! request is read); `--queue-timeout-ms` errors `POST` jobs that wait
//! longer, from accept to a worker, instead of running them stale. `--slow-ms` arms tail
//! sampling: a job slower than the threshold (or erroring, or degrading)
//! keeps its full span trace and replayable `.omega` provenance under
//! `--slow-dir` (default `codegend-slow`); fast healthy jobs keep
//! nothing, and `--slow-ms 0` keeps every job's artifacts.
//! `--log FILE` appends the request log to FILE, opened once and never
//! reopened: rotate it externally by copy and truncate (logrotate's
//! `copytruncate`). The sampling profiler is always serving at
//! `/debug/pprof/profile?seconds=N` as collapsed-stack flamegraph text.

use serve::{spawn, Config, LogTarget};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let mut cfg = Config::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |flag: &str| match args.next() {
            Some(v) => Ok(v),
            None => {
                eprintln!("{flag} requires an argument");
                Err(())
            }
        };
        let parsed = match a.as_str() {
            "--http" => val("--http").map(|v| cfg.http_addr = v),
            "--effort" => match val("--effort").map(|v| v.parse()) {
                Ok(Ok(v)) => {
                    cfg.default_effort = v;
                    Ok(())
                }
                _ => Err(()),
            },
            "--deadline-ms" => match val("--deadline-ms").map(|v| v.parse()) {
                Ok(Ok(ms)) => {
                    cfg.deadline = Some(Duration::from_millis(ms));
                    Ok(())
                }
                _ => Err(()),
            },
            "--workers" => match val("--workers").map(|v| v.parse()) {
                Ok(Ok(v)) => {
                    cfg.workers = v;
                    Ok(())
                }
                _ => Err(()),
            },
            "--queue-depth" => match val("--queue-depth").map(|v| v.parse()) {
                Ok(Ok(v)) => {
                    cfg.queue_depth = v;
                    Ok(())
                }
                _ => Err(()),
            },
            "--queue-timeout-ms" => match val("--queue-timeout-ms").map(|v| v.parse()) {
                Ok(Ok(ms)) => {
                    cfg.queue_timeout = Some(Duration::from_millis(ms));
                    Ok(())
                }
                _ => Err(()),
            },
            "--slow-ms" => match val("--slow-ms").map(|v| v.parse()) {
                Ok(Ok(ms)) => {
                    cfg.slow_ms = Some(ms);
                    Ok(())
                }
                _ => Err(()),
            },
            "--slow-dir" => val("--slow-dir").map(|v| cfg.slow_dir = PathBuf::from(v)),
            "--log" => val("--log").map(|v| cfg.log = LogTarget::File(PathBuf::from(v))),
            "--help" | "-h" => {
                eprintln!(
                    "usage: codegend [--http ADDR] [--effort N] [--deadline-ms MS]\n\
                     \x20               [--workers N] [--queue-depth N]\n\
                     \x20               [--queue-timeout-ms MS] [--slow-ms MS] [--slow-dir DIR]\n\
                     \x20               [--log FILE]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag {other}");
                Err(())
            }
        };
        if parsed.is_err() {
            return ExitCode::FAILURE;
        }
    }
    let daemon = match spawn(cfg) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("codegend: cannot start: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The one stdout line scripts wait for before connecting.
    println!("codegend listening http={}", daemon.http_addr());
    daemon.wait();
    ExitCode::SUCCESS
}
