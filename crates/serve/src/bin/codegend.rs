//! `codegend` — the long-running codegen daemon.
//!
//! Accepts codegen jobs over a line-delimited TCP protocol and over
//! HTTP/JSON (`POST /v1/gen`, `POST /v1/batch`), and serves
//! Prometheus/OpenMetrics telemetry over HTTP. See `crates/serve` docs
//! and the README quick-start.
//!
//! ```text
//! codegend [--jobs ADDR] [--http ADDR] [--effort N] [--threads N]
//!          [--deadline-ms MS] [--workers N] [--queue-depth N]
//!          [--queue-timeout-ms MS]
//!          [--dump-dir DIR] [--cache-dir DIR] [--cache-flush-ms MS]
//!          [--slow-ms MS] [--slow-dir DIR] [--flight-kb KB]
//!          [--log FILE] [--log-max-mb MB] [--log-keep N]
//!          [--no-phase-trace]
//! ```
//!
//! Defaults: jobs on 127.0.0.1:7077, HTTP on 127.0.0.1:9077, effort 1,
//! 1 thread per job, no deadline, request log as JSON lines on stderr,
//! phase tracing on. `--workers` sizes the pool draining the FIFO job
//! queue (0 = machine cores, the default); `--queue-depth` bounds how
//! many admitted jobs may wait (default 256 — over it, requests get
//! `busy` / HTTP 503); `--queue-timeout-ms` errors jobs that wait longer
//! instead of running them stale. `--cache-dir` warm-starts the
//! crash-safe persistent solver cache from that directory and flushes new
//! exact verdicts to it every `--cache-flush-ms` (default 5000) and at
//! shutdown; a missing or broken cache degrades to process-local caching
//! (logged + counted), never a startup failure. `--slow-ms` arms tail
//! sampling: a job slower than the threshold (or erroring, or degrading)
//! keeps its full span trace and replayable `.omega` provenance under
//! `--slow-dir` (default `codegend-slow`); fast healthy jobs keep
//! nothing. `--flight-kb` sizes the always-on flight recorder's
//! per-thread rings (default 256), drained live at `/debug/flight`.
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
            "--threads" => match val("--threads").map(|v| v.parse()) {
                Ok(Ok(v)) if v >= 1 => {
                    cfg.default_threads = v;
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
            "--dump-dir" => val("--dump-dir").map(|v| cfg.dump_dir = Some(PathBuf::from(v))),
            "--cache-dir" => val("--cache-dir").map(|v| cfg.cache_dir = Some(PathBuf::from(v))),
            "--cache-flush-ms" => match val("--cache-flush-ms").map(|v| v.parse()) {
                Ok(Ok(ms)) => {
                    cfg.cache_flush = Duration::from_millis(ms);
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
            "--flight-kb" => match val("--flight-kb").map(|v| v.parse::<usize>()) {
                Ok(Ok(kb)) => {
                    cfg.flight_bytes = kb * 1024;
                    Ok(())
                }
                _ => Err(()),
            },
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
            "--no-phase-trace" => {
                cfg.phase_trace = false;
                Ok(())
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: codegend [--jobs ADDR] [--http ADDR] [--effort N] [--threads N]\n\
                     \x20               [--deadline-ms MS] [--workers N] [--queue-depth N]\n\
                     \x20               [--queue-timeout-ms MS]\n\
                     \x20               [--dump-dir DIR] [--cache-dir DIR] [--cache-flush-ms MS]\n\
                     \x20               [--slow-ms MS] [--slow-dir DIR] [--flight-kb KB]\n\
                     \x20               [--log FILE] [--log-max-mb MB] [--log-keep N]\n\
                     \x20               [--no-phase-trace]"
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
