//! # serve — the `codegend` daemon
//!
//! A long-running service in front of the CodeGen+ pipeline, with one
//! HTTP listener as its only interface. The accept thread hands each
//! connection to one bounded FIFO ([`queue`]); a worker pool sized to
//! cores drains it, and one worker carries each request from reading it
//! to the reply: `POST /v1/gen` and `POST /v1/batch` (JSON bodies) run
//! their jobs inline, a batch streaming one reply per space. The daemon's
//! threads are the accept thread and the workers, whatever the number of
//! connections. The daemon exposes
//!
//! * **`GET /metrics`** — OpenMetrics text from a [`telemetry::Registry`]:
//!   request counters, queue depth, in-flight and worker gauges,
//!   shed/timeout counters, queue-wait and service histograms,
//!   per-phase latency histograms (one total per phase per job), and the
//!   cumulative `omega::stats` solver counters bridged at scrape time;
//! * **`GET /healthz`** — a JSON readiness probe with uptime, job
//!   totals, queue occupancy and worker count, cumulative
//!   degradations, and the profiler state;
//! * **structured JSON request logs** — one line per request, plus one
//!   canonical [`omega::report::QueryReport`] wide event per job with
//!   per-phase wall times, queue wait, and solver counter deltas; both
//!   carry the request id;
//! * **`GET /debug/*`** — live introspection: `/debug/requests` (the
//!   recent `QueryReport`s), `/debug/config` (the resolved
//!   [`Config`]), and `/debug/pprof/profile` (a sampling-profiler
//!   capture as collapsed stacks, which holds its worker for the whole
//!   capture);
//! * **tail sampling** — the one way to keep a job's artifacts. With
//!   `--slow-ms N`, only jobs slower than `N` milliseconds (or that
//!   error or degrade) retain their full span trace and replayable
//!   `.omega` provenance dumps under `<slow-dir>/<request-id>/`
//!   (`omega-replay` closes the loop from a slow request in the log to a
//!   standalone reproduction); fast, healthy jobs leave nothing on disk.
//!   `--slow-ms 0` keeps every job's artifacts.
//!
//! A job's phases and solver counters come from its worker thread: the
//! span hook (`telemetry::span_hook`, installed at spawn) sums each span
//! name's wall time while [`telemetry::profile::timed`] is armed around
//! the job, and [`omega::stats::thread_snapshot`] deltas count only that
//! thread's solver work, so both are exact under concurrent jobs. A span
//! [`omega::trace::Collector`] records a job only when `--slow-ms` may
//! retain its `trace.json` and dumps. A job generates and compiles; it is
//! never interpreted, so its report carries no dynamic cost (`table1`
//! reports that per tool, once per kernel).
//!
//! ## The service core
//!
//! Admission checks the hand-off's length against `--queue-depth` under
//! the queue lock — over capacity, the accept thread answers `503` +
//! `Retry-After` at once, before reading the request, so no thread waits
//! on a connection the pool has no room for. Workers take connections in
//! arrival order, `GET`s included. A `batch` request runs N spaces on the
//! worker that read it — one parse, one slot, per-space replies streamed
//! back in order.
//!
//! Generation stays deterministic: a daemon answer for a kernel job is
//! byte-identical to what the batch `table1` pipeline produces for the
//! same statements, at any worker count or queue depth
//! (`tests/daemon_e2e.rs` pins this under concurrent requests and
//! across queue configurations). The only intentionally nondeterministic
//! knob is `--deadline-ms`, which arms `omega::Limits::deadline` per job:
//! under overload the solver degrades (soundly) instead of queueing
//! without bound, and every such degradation is counted per reason.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod json;
pub mod metrics;
pub mod queue;

mod http;
mod report;

use crate::metrics::Metrics;
use crate::queue::{JobSource, JobSpec, Queue};
use codegenplus::{pad_statements, CodeGen, Statement};
use omega::report::{is_phase_name, now_ms, QueryReport};
use std::fmt::Write as _;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};
use telemetry::log::{escape_into, Logger, Record};

/// Where the structured request log goes.
#[derive(Clone, Debug, Default)]
pub enum LogTarget {
    /// One JSON line per request on stderr (the default).
    #[default]
    Stderr,
    /// Append JSON lines to a file.
    File(PathBuf),
}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// No effect, kept only until the repository benchmark stops setting
    /// it.
    pub jobs_addr: String,
    /// Bind address of the HTTP listener (`/metrics`, `/healthz`,
    /// `/v1/*`).
    pub http_addr: String,
    /// Effort when a job does not specify one (the paper's default is 1).
    pub default_effort: usize,
    /// Per-job wall-clock deadline. When set, a job that blows it degrades
    /// (sound, `Certainty::Approximate`) instead of running long — the
    /// load-shedding behavior for overloaded deployments. `None` keeps
    /// results a pure function of the input.
    pub deadline: Option<Duration>,
    /// Size of the worker pool, the daemon's only pool: each worker reads
    /// a connection's request, runs it and replies. `0` resolves to the
    /// machine's available parallelism.
    pub workers: usize,
    /// Bound of the hand-off: accepted connections waiting for a worker.
    /// Over capacity, a connection is answered `503` before its request
    /// is read, instead of queueing without bound.
    pub queue_depth: usize,
    /// Maximum time a `POST` job may wait, from accept to a worker taking
    /// its connection, before it is answered with an error instead of
    /// executing (`None` waits forever). Bounds the staleness of work
    /// under sustained overload: shed at accept when full, time out in
    /// queue when slow.
    pub queue_timeout: Option<Duration>,
    /// Tail-sampling threshold. When set, a job slower than this many
    /// milliseconds — or one that errors or degrades — retains its full
    /// span trace (`trace.json`) and buffered `.omega` provenance dumps
    /// under `<slow_dir>/<request-id>/`. Fast, healthy jobs retain
    /// nothing. `0` retains every job (useful in tests). Set, every job
    /// records its span tree under a `Collector`; unset, none does.
    pub slow_ms: Option<u64>,
    /// Where tail-sampled slow-job artifacts land (only with `slow_ms`).
    pub slow_dir: PathBuf,
    /// Structured request-log sink. A file is appended to and never
    /// reopened: rotate it externally by copy and truncate.
    pub log: LogTarget,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            jobs_addr: String::new(),
            http_addr: "127.0.0.1:9077".to_owned(),
            default_effort: 1,
            deadline: None,
            workers: 0,
            queue_depth: 256,
            queue_timeout: None,
            slow_ms: None,
            slow_dir: PathBuf::from("codegend-slow"),
            log: LogTarget::Stderr,
        }
    }
}

/// How many recent [`QueryReport`]s `GET /debug/requests`
/// retains in memory.
const REPORT_RING: usize = 256;

/// The build fingerprint reported on `/healthz` and `/debug/config`:
/// crate version, target, and build profile — enough to tell *which*
/// binary is misbehaving when several generations run behind one
/// balancer.
pub(crate) fn build_fingerprint() -> String {
    format!(
        "codegend/{} {}-{} {}",
        env!("CARGO_PKG_VERSION"),
        std::env::consts::ARCH,
        std::env::consts::OS,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    )
}

/// Shared daemon state: config, metrics, logger, the connection
/// hand-off, the report ring behind `/debug/requests`, and the counters
/// the health endpoint reports.
pub(crate) struct State {
    cfg: Config,
    pub(crate) metrics: Metrics,
    logger: Logger,
    started: Instant,
    req_seq: AtomicU64,
    inflight: AtomicU64,
    jobs_total: AtomicU64,
    stop: AtomicBool,
    reports: report::ReportRing,
    /// Accepted connections and their accept instants, waiting for a
    /// worker.
    queue: Queue<(TcpStream, Instant)>,
    /// Resolved worker-pool size (`cfg.workers` with 0 resolved).
    workers: usize,
}

impl State {
    /// A daemon-assigned request id, `r-NNNNNN`.
    pub(crate) fn next_id(&self) -> String {
        format!("r-{:06}", self.req_seq.fetch_add(1, Ordering::SeqCst))
    }

    /// The `/metrics` body: bridge the solver counters, refresh the
    /// queue gauge and uptime, render the registry.
    pub(crate) fn metrics_text(&self) -> String {
        self.metrics
            .uptime_seconds
            .set(self.started.elapsed().as_secs() as i64);
        self.metrics.queue_depth.set(self.queue.len() as i64);
        self.metrics.bridge_solver_stats();
        self.metrics.registry.expose()
    }

    /// The `/healthz` body: readiness plus the operational facts a probe
    /// wants before paging anyone — queue occupancy, the worker pool,
    /// cumulative degradations by kind, and the profiler state.
    pub(crate) fn healthz_json(&self) -> String {
        let stats = omega::stats::snapshot();
        let mut out = format!(
            "{{\"status\":\"ready\",\"uptime_ms\":{},\"uptime_seconds\":{},\"build\":\"",
            self.started.elapsed().as_millis(),
            self.started.elapsed().as_secs(),
        );
        escape_into(&build_fingerprint(), &mut out);
        let _ = write!(
            out,
            "\",\"jobs_total\":{},\"inflight\":{},\"shed_total\":{},\
             \"queue\":{{\"depth\":{},\"capacity\":{},\"workers\":{}}},\
             \"degraded\":{{\"sat\":{},\"gist\":{},\"by_reason\":{{\"overflow\":{},\"budget\":{},\
             \"depth\":{},\"rowcap\":{},\"deadline\":{}}}}}",
            self.jobs_total.load(Ordering::Relaxed),
            self.inflight.load(Ordering::Relaxed),
            self.metrics.shed.get(),
            self.queue.len(),
            self.queue.capacity(),
            self.workers,
            stats.sat_degraded,
            stats.gist_degraded,
            stats.degrade_overflow,
            stats.degrade_budget,
            stats.degrade_depth,
            stats.degrade_rowcap,
            stats.degrade_deadline,
        );
        let p = telemetry::profile::state();
        let _ = write!(
            out,
            ",\"profiler\":{{\"supported\":{},\"active\":{},\"sessions\":{},\"last_samples\":{},\
             \"pc_only\":{}}}",
            p.supported, p.active, p.sessions, p.last_samples, p.pc_only,
        );
        out.push_str("}\n");
        out
    }

    /// Captures one profiling session for `/debug/pprof/profile`:
    /// occupies the calling worker for `duration`, then
    /// symbolizes. Logs a `profile` record with the capture facts.
    pub(crate) fn profile_capture(
        &self,
        opts: telemetry::profile::Options,
        duration: Duration,
    ) -> Result<telemetry::profile::ResolvedProfile, telemetry::profile::ProfileError> {
        let profile = telemetry::profile::run_for(opts, duration)?;
        let resolved = profile.resolve();
        self.logger.log(
            Record::new("profile")
                .str("mode", resolved.mode.as_str())
                .int("duration_ms", duration.as_millis() as i128)
                .int("samples", resolved.sample_count as i128)
                .int("dropped", resolved.dropped as i128)
                .int("stacks", resolved.stacks.len() as i128),
        );
        Ok(resolved)
    }

    /// The `/debug/requests` body: recent [`QueryReport`]s, oldest first.
    pub(crate) fn debug_requests_json(&self) -> String {
        self.reports.to_json()
    }

    /// The `/debug/config` body: the resolved daemon configuration.
    pub(crate) fn debug_config_json(&self) -> String {
        let c = &self.cfg;
        let mut out = String::from("{\"http_addr\":\"");
        escape_into(&c.http_addr, &mut out);
        let _ = write!(
            out,
            "\",\"default_effort\":{},\"workers\":{},\"queue_depth\":{}",
            c.default_effort, self.workers, c.queue_depth,
        );
        match c.queue_timeout {
            Some(d) => {
                let _ = write!(out, ",\"queue_timeout_ms\":{}", d.as_millis());
            }
            None => out.push_str(",\"queue_timeout_ms\":null"),
        }
        match c.deadline {
            Some(d) => {
                let _ = write!(out, ",\"deadline_ms\":{}", d.as_millis());
            }
            None => out.push_str(",\"deadline_ms\":null"),
        }
        match c.slow_ms {
            Some(ms) => {
                let _ = write!(out, ",\"slow_ms\":{ms}");
            }
            None => out.push_str(",\"slow_ms\":null"),
        }
        out.push_str(",\"slow_dir\":\"");
        escape_into(&c.slow_dir.display().to_string(), &mut out);
        out.push_str("\",\"build\":\"");
        escape_into(&build_fingerprint(), &mut out);
        let _ = writeln!(
            out,
            "\",\"profiler_supported\":{}}}",
            telemetry::profile::state().supported
        );
        out
    }
}

/// A running daemon: the accept thread and the worker pool that serves
/// every connection — a fixed set of threads.
pub struct Daemon {
    state: Arc<State>,
    http_addr: SocketAddr,
    accept_thread: JoinHandle<()>,
    worker_threads: Vec<JoinHandle<()>>,
}

/// Binds the HTTP listener, starts the worker pool and the accept
/// thread, and starts serving.
///
/// # Errors
///
/// Propagates bind/logger I/O errors. Port 0 in the address picks an
/// ephemeral port; read it back from [`Daemon::http_addr`].
pub fn spawn(cfg: Config) -> io::Result<Daemon> {
    let http = TcpListener::bind(&cfg.http_addr)?;
    let http_addr = http.local_addr()?;
    let logger = match &cfg.log {
        LogTarget::Stderr => Logger::stderr(),
        LogTarget::File(p) => Logger::file(p)?,
    };
    // The omega span hook keeps the per-thread span stack that
    // `/debug/pprof/profile` samples are tagged with and that times each
    // job's phases. Installing is idempotent (first hook wins), so
    // embedding several daemons in one process (the tests do) is fine.
    omega::trace::install_span_hook(telemetry::span_hook);
    let workers = if cfg.workers == 0 {
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        cfg.workers
    };
    let state = Arc::new(State {
        metrics: Metrics::new(),
        logger,
        started: Instant::now(),
        req_seq: AtomicU64::new(1),
        inflight: AtomicU64::new(0),
        jobs_total: AtomicU64::new(0),
        stop: AtomicBool::new(false),
        reports: report::ReportRing::new(REPORT_RING),
        queue: Queue::new(cfg.queue_depth),
        workers,
        cfg,
    });
    state.metrics.workers.set(workers as i64);
    state.logger.log(
        Record::new("start")
            .str("http_addr", &http_addr.to_string())
            .int("workers", workers as i64)
            .int("queue_depth", state.cfg.queue_depth as i64),
    );
    let mut worker_threads = Vec::with_capacity(workers);
    for i in 0..workers {
        let state = Arc::clone(&state);
        worker_threads.push(
            thread::Builder::new()
                .name(format!("codegend-worker-{i}"))
                .spawn(move || {
                    while let Some(conn) = state.queue.pop() {
                        http::handle_conn(&state, conn);
                    }
                })?,
        );
    }
    let accept_thread = {
        let state = Arc::clone(&state);
        thread::Builder::new()
            .name("codegend-http".into())
            .spawn(move || accept_loop(http, state))?
    };
    Ok(Daemon {
        state,
        http_addr,
        accept_thread,
        worker_threads,
    })
}

impl Daemon {
    /// Actual bound address of the HTTP listener.
    pub fn http_addr(&self) -> SocketAddr {
        self.http_addr
    }

    /// Asks the accept thread and the worker pool to stop (idempotent).
    /// Each worker finishes the connection it holds; the accept thread
    /// stops the hand-off and answers each connection still waiting for a
    /// worker with a `503` shutdown error.
    pub fn shutdown(&self) {
        self.state.stop.store(true, Ordering::SeqCst);
        // Unblock the blocking accept with one throwaway connection.
        let _ = TcpStream::connect(self.http_addr);
    }

    /// Blocks until the accept loop and workers exit (after
    /// [`Daemon::shutdown`], or never in normal daemon operation).
    pub fn wait(self) {
        let _ = self.accept_thread.join();
        for t in self.worker_threads {
            let _ = t.join();
        }
    }
}

/// Hands each accepted connection to the workers, or sheds it when the
/// hand-off is full. The only thread that pushes, so once it stops the
/// queue on its way out, nothing is queued that no worker will take.
///
/// At shutdown every connection the kernel has accepted gets the
/// "daemon shutting down" `503`: the one that woke the loop, those still
/// queued, and those in the listen backlog that `accept()` has not
/// returned yet, which closing the listener would reset. The backlog is
/// drained last, so the listener closes right after it runs dry.
fn accept_loop(listener: TcpListener, state: Arc<State>) {
    let shutting_down = || http::error_body("daemon shutting down");
    for stream in listener.incoming() {
        if state.stop.load(Ordering::SeqCst) {
            if let Ok(stream) = stream {
                http::respond_unread(stream, &shutting_down());
            }
            break;
        }
        let Ok(stream) = stream else { continue };
        if let Err((stream, _)) = state.queue.try_push((stream, Instant::now())) {
            shed(&state, stream);
        }
    }
    for (stream, _) in state.queue.stop() {
        http::respond_unread(stream, &shutting_down());
    }
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    loop {
        // An accepted socket does not inherit the listener's non-blocking
        // mode, so each reply is written whole.
        match listener.accept() {
            Ok((stream, _)) => http::respond_unread(stream, &shutting_down()),
            // A client that gave up while waiting: take the next one.
            Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => {}
            // `WouldBlock`: the backlog is empty.
            Err(_) => break,
        }
    }
}

/// Answers a connection the hand-off has no room for: `503` with the
/// queue facts, written before the request is read, so its kind is
/// `unread`. Counted as a shed and a `busy` request, and logged.
fn shed(state: &State, stream: TcpStream) {
    let id = state.next_id();
    let peer = stream
        .peer_addr()
        .map(|p| p.to_string())
        .unwrap_or_default();
    state.metrics.shed.inc();
    state.metrics.requests.with(&["unread", "busy"]).inc();
    state.logger.log(
        Record::new("request")
            .str("id", &id)
            .str("peer", &peer)
            .str("kind", "unread")
            .str("status", "busy"),
    );
    let mut body = String::from("{\"error\":\"busy\",\"id\":\"");
    escape_into(&id, &mut body);
    let _ = writeln!(
        body,
        "\",\"queued\":{},\"capacity\":{}}}",
        state.queue.len(),
        state.queue.capacity()
    );
    http::respond_unread(stream, &body);
}

// ---------------------------------------------------------------------------
// Running jobs
// ---------------------------------------------------------------------------

/// Runs one `POST` job's tasks in order on the calling worker: a `gen` is
/// one task, a `batch` one per space (ids `job#i`). Observes the job's
/// queue wait; past `--queue-timeout-ms`, answers every task with an
/// error instead of running it (a timeout is counted apart from a shed:
/// a shed never entered the queue, a timeout waited and lost). Each
/// task's reply object goes to `emit` when it is ready; the first failed
/// `emit` (the client hung up) ends the job.
pub(crate) fn run_tasks(
    state: &State,
    peer: &str,
    job_id: &str,
    kind: &'static str,
    queue_ns: u64,
    tasks: &[(String, JobSpec)],
    mut emit: impl FnMut(String) -> io::Result<()>,
) {
    state.metrics.queue_wait_seconds.observe_ns(queue_ns);
    if let Some(limit) = state.cfg.queue_timeout {
        if u128::from(queue_ns) > limit.as_nanos() {
            state.metrics.timeout.inc();
            state.metrics.requests.with(&[kind, "timeout"]).inc();
            state.logger.log(
                Record::new("request")
                    .str("id", job_id)
                    .str("peer", peer)
                    .str("kind", kind)
                    .str("status", "timeout")
                    .int("queue_ns", queue_ns as i64),
            );
            let msg = format!("timed out in queue after {}ms", queue_ns / 1_000_000);
            for (id, spec) in tasks {
                let reply = http::task_reply_json(id, &spec.source.tag(), Err(msg.clone()));
                if emit(reply).is_err() {
                    break;
                }
            }
            return;
        }
    }
    state.inflight.fetch_add(1, Ordering::SeqCst);
    state.metrics.inflight.add(1);
    let t0 = Instant::now();
    for (id, spec) in tasks {
        let outcome = execute_task(state, id, peer, kind, queue_ns, spec);
        if emit(http::task_reply_json(id, &spec.source.tag(), outcome)).is_err() {
            break;
        }
    }
    state.metrics.inflight.add(-1);
    state.inflight.fetch_sub(1, Ordering::SeqCst);
    state
        .metrics
        .service_seconds
        .observe_ns(t0.elapsed().as_nanos() as u64);
}

/// Executes one task (a `gen`, or one space of a `batch`) on a worker:
/// the armed span timing, the panic fence, the [`QueryReport`] wide
/// event, tail sampling, logging, and metrics.
fn execute_task(
    state: &State,
    id: &str,
    peer: &str,
    kind: &'static str,
    queue_ns: u64,
    spec: &JobSpec,
) -> Result<JobOutput, String> {
    let t0 = Instant::now();
    let source_tag = spec.source.tag();
    // A span collector records the job's trace only when tail sampling
    // may keep it; its provenance dumps are buffered in memory so the
    // keep/discard decision can happen after the job, and dropping the
    // collector discards them.
    let slow_ms = state.cfg.slow_ms;
    let collector = slow_ms.map(|_| {
        let c = omega::trace::Collector::new();
        c.buffer_queries();
        c
    });
    let mut measured = Measured::default();
    // A panicking job must cost only that request, not the daemon: the
    // solver itself is panic-free, but ad-hoc inputs reach library
    // preconditions (space padding, arity checks) that assert.
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_job(state, spec, collector.clone(), &mut measured)
    }))
    .unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "job panicked".to_owned());
        Err(format!("job panicked: {msg}"))
    });
    let request_ns = t0.elapsed().as_nanos() as u64;
    let phases: Vec<(&'static str, u64)> = measured
        .spans
        .spans
        .iter()
        .filter(|s| is_phase_name(s.name))
        .map(|s| (s.name, s.ns))
        .collect();
    state.metrics.record_phases(&phases);
    let mut rep = QueryReport {
        id: id.to_owned(),
        kind,
        source: source_tag.clone(),
        status: "ok",
        queue_ns,
        ts_ms: now_ms(),
        effort: spec.effort.unwrap_or(state.cfg.default_effort),
        lines: 0,
        bytes: 0,
        codegen_ns: 0,
        compile_ns: 0,
        request_ns,
        certainty: String::new(),
        phases,
        counters: measured.counters,
        slow: false,
        retained: None,
        error: None,
    };
    match &result {
        Ok(out) => {
            rep.lines = out.lines;
            rep.bytes = out.code.len();
            rep.codegen_ns = out.codegen_ns;
            rep.compile_ns = out.compile_ns;
            rep.certainty = out.certainty.clone();
        }
        Err(msg) => {
            rep.status = "err";
            rep.error = Some(msg.clone());
        }
    }
    // Tail sampling: keep the full trace and provenance only for jobs
    // worth a second look — over the latency threshold, errored, or
    // degraded. Everything else leaves no artifacts.
    if let (Some(ms), Some(collector)) = (slow_ms, &collector) {
        let degraded = rep.certainty.starts_with("approximate");
        let reason = if rep.status == "err" {
            Some("error")
        } else if degraded {
            Some("degraded")
        } else if request_ns > ms.saturating_mul(1_000_000) {
            Some("threshold")
        } else {
            None
        };
        if let Some(reason) = reason {
            rep.slow = true;
            let dir = state.cfg.slow_dir.join(id);
            let (kept, dropped) = match retain_slow_artifacts(&dir, collector) {
                Ok(counts) => {
                    rep.retained = Some(dir.display().to_string());
                    counts
                }
                // Retention must never fail the request.
                Err(e) => {
                    state.logger.log(
                        Record::new("slow_retain_error")
                            .str("id", id)
                            .str("msg", &e.to_string()),
                    );
                    (0, 0)
                }
            };
            state.metrics.slow.with(&[reason]).inc();
            state.logger.log(
                Record::new("slow_query")
                    .str("id", id)
                    .str("reason", reason)
                    .int("request_ns", request_ns as i64)
                    .int("threshold_ms", ms as i64)
                    .int("dumps", kept as i64)
                    .int("dumps_dropped", dropped as i64)
                    .str("dir", &dir.display().to_string()),
            );
        }
    }
    state.metrics.requests.with(&[kind, rep.status]).inc();
    state.metrics.request_seconds.observe_ns(request_ns);
    // The compact per-request record first (the line older tooling greps
    // for), then the canonical wide event — both carry the id, so either
    // one joins to the other and to the retained slow-job directory.
    let record = Record::new("request")
        .str("id", id)
        .str("peer", peer)
        .str("kind", kind)
        .str("source", &source_tag);
    state.logger.log(match &result {
        Ok(out) => {
            state.jobs_total.fetch_add(1, Ordering::Relaxed);
            state.metrics.response_bytes.add(rep.bytes as u64);
            record
                .int("effort", rep.effort as i64)
                .str("status", "ok")
                .int("lines", rep.lines as i64)
                .int("bytes", rep.bytes as i64)
                .int("codegen_ns", rep.codegen_ns as i64)
                .int("compile_ns", rep.compile_ns as i64)
                .int("queue_ns", queue_ns as i64)
                .int("request_ns", request_ns as i64)
                .str("certainty", &out.certainty)
        }
        Err(msg) => record.str("status", "err").str("msg", msg),
    });
    state.logger.log_line(&rep.to_json());
    state.reports.push(rep);
    result
}

/// A completed job, ready to serialize.
pub(crate) struct JobOutput {
    pub(crate) code: String,
    pub(crate) lines: usize,
    pub(crate) codegen_ns: u64,
    pub(crate) compile_ns: u64,
    pub(crate) certainty: String,
}

/// Pads and converts a kernel's statements for the generators — the same
/// preparation the batch `table1` harness performs, so a daemon answer
/// for a kernel job stays byte-identical to the batch pipeline's.
fn statements_of(kernel: &chill::Kernel) -> Vec<Statement> {
    let stmts: Vec<Statement> = kernel
        .nest
        .statements()
        .iter()
        .map(|s| Statement::new(s.name.clone(), s.domain.clone()).with_args(s.args.clone()))
        .collect();
    pad_statements(&stmts, 0)
}

/// A job's own work, measured on its worker thread around generation
/// and compile: its solver counters, exact under concurrent jobs because
/// they are this thread's, and its span totals per name.
#[derive(Default)]
struct Measured {
    counters: omega::stats::Snapshot,
    spans: telemetry::profile::SpanTotals,
}

/// Builds the statements (a kernel job builds only its own recipe), runs
/// CodeGen+ (and the stand-in compiler for its pass timings) with span
/// timing armed and `collector`, if any, installed, records their
/// [`Measured`] work, and counts degradations per reason. The C text is
/// rendered once; its line count is taken from that text.
fn run_job(
    state: &State,
    spec: &JobSpec,
    collector: Option<omega::trace::Collector>,
    measured: &mut Measured,
) -> Result<JobOutput, String> {
    let stmts = match &spec.source {
        JobSource::Kernel { name, n } => {
            let kernel = chill::recipes::by_name(name, *n).ok_or_else(|| {
                format!("unknown kernel {name:?} (expected one of gemv qr swim gemm lu)")
            })?;
            statements_of(&kernel)
        }
        JobSource::Spaces(texts) => {
            let mut stmts = Vec::with_capacity(texts.len());
            for (i, text) in texts.iter().enumerate() {
                let set = omega::Set::parse(text).map_err(|e| format!("statement {i}: {e}"))?;
                stmts.push(Statement::new(format!("s{i}"), set));
            }
            pad_statements(&stmts, 0)
        }
    };
    let effort = spec.effort.unwrap_or(state.cfg.default_effort);
    let mut cg = CodeGen::new().statements(stmts).effort(effort);
    if let Some(d) = state.cfg.deadline {
        cg = cg.limits(omega::Limits {
            deadline: Some(Instant::now() + d),
            ..omega::Limits::default()
        });
    }
    let before = omega::stats::thread_snapshot();
    let (run, spans) = telemetry::profile::timed(|| {
        omega::trace::with_collector(collector, || {
            let t0 = Instant::now();
            let g = cg.generate().map_err(|e| e.to_string())?;
            let codegen_ns = t0.elapsed().as_nanos() as u64;
            // The stand-in compiler pipeline, for its pass_* spans and
            // the compile-time column the batch harness also reports.
            let t1 = Instant::now();
            polyir::passes::compile(&g.code);
            Ok::<_, String>((g, codegen_ns, t1.elapsed().as_nanos() as u64))
        })
    });
    *measured = Measured {
        counters: omega::stats::thread_snapshot().delta(&before),
        spans,
    };
    let (g, codegen_ns, compile_ns) = run?;
    state.metrics.codegen_seconds.observe_ns(codegen_ns);
    for reason in g.certainty.reasons().iter() {
        state.metrics.degraded.with(&[reason.as_str()]).inc();
    }
    let mut code = g.to_c();
    if !code.ends_with('\n') {
        code.push('\n');
    }
    Ok(JobOutput {
        lines: polyir::lines_of_text(&code),
        code,
        codegen_ns,
        compile_ns,
        certainty: g.certainty.to_string(),
    })
}

/// Writes a tail-sampled job's artifacts under `dir`: the collector's
/// span trace as `trace.json` (Chrome trace-event format, same exporter
/// as `table1 --trace`) and its buffered `.omega` provenance dumps,
/// replayable with `omega-replay`. Returns the dumps written and those
/// the collector's buffer dropped.
fn retain_slow_artifacts(
    dir: &std::path::Path,
    collector: &omega::trace::Collector,
) -> io::Result<(usize, usize)> {
    std::fs::create_dir_all(dir)?;
    let mut f = std::fs::File::create(dir.join("trace.json"))?;
    collector.finish().write_chrome_json(&mut f)?;
    collector.write_buffered_dumps(dir)
}
