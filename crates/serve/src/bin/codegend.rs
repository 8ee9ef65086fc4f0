//! `codegend` — the long-running codegen daemon.
//!
//! Accepts codegen jobs over a line-delimited TCP protocol and over
//! HTTP/JSON (`POST /v1/gen`, `POST /v1/batch`), and serves
//! Prometheus/OpenMetrics telemetry over HTTP. See `crates/serve` docs
//! and the README quick-start.
//!
//! ```text
//! codegend [--jobs ADDR] [--http ADDR] [--effort N] [--deadline-ms MS]
//!          [--workers N] [--queue-depth N]
//!          [--queue-timeout-ms MS] [--slow-ms MS] [--slow-dir DIR]
//!          [--log FILE] [--log-max-mb MB] [--log-keep N]
//! ```
//!
//! Defaults: jobs on 127.0.0.1:7077, HTTP on 127.0.0.1:9077, effort 1,
//! no deadline, request log as JSON lines on stderr. Each job runs on
//! one worker thread.
//! Every job runs under a span collector that feeds the phase histograms
//! and its query report. `--workers` sizes the pool draining the FIFO job
//! queue (0 = machine cores, the default); `--queue-depth` bounds how
//! many admitted jobs may wait (default 256 — over it, requests get
//! `busy` / HTTP 503); `--queue-timeout-ms` errors jobs that wait longer
//! instead of running them stale. `--slow-ms` arms tail
//! sampling: a job slower than the threshold (or erroring, or degrading)
//! keeps its full span trace and replayable `.omega` provenance under
//! `--slow-dir` (default `codegend-slow`); fast healthy jobs keep
//! nothing, and `--slow-ms 0` keeps every job's artifacts.
//! `--log-max-mb` rotates a `--log FILE` when it would exceed that many
//! MiB, keeping `--log-keep` numbered generations (default 3). The
//! sampling profiler is always serving at
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
            "--jobs" => val("--jobs").map(|v| cfg.jobs_addr = v),
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
            "--log-max-mb" => match val("--log-max-mb").map(|v| v.parse()) {
                Ok(Ok(mb)) if mb >= 1 => {
                    cfg.log_max_mb = Some(mb);
                    Ok(())
                }
                _ => Err(()),
            },
            "--log-keep" => match val("--log-keep").map(|v| v.parse()) {
                Ok(Ok(n)) if n >= 1 => {
                    cfg.log_keep = n;
                    Ok(())
                }
                _ => Err(()),
            },
            "--help" | "-h" => {
                eprintln!(
                    "usage: codegend [--jobs ADDR] [--http ADDR] [--effort N] [--deadline-ms MS]\n\
                     \x20               [--workers N] [--queue-depth N]\n\
                     \x20               [--queue-timeout-ms MS] [--slow-ms MS] [--slow-dir DIR]\n\
                     \x20               [--log FILE] [--log-max-mb MB] [--log-keep N]"
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
    println!(
        "codegend listening jobs={} http={}",
        daemon.jobs_addr(),
        daemon.http_addr()
    );
    daemon.wait();
    ExitCode::SUCCESS
}
