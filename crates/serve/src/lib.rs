//! # serve — the `codegend` daemon
//!
//! A long-running service in front of the CodeGen+ pipeline, with one
//! HTTP listener as its only interface. Connections to `POST /v1/gen` and
//! `POST /v1/batch` (JSON bodies) *submit* jobs into one bounded FIFO
//! queue ([`queue`]); a worker pool sized to cores drains it and streams
//! replies back per job. The daemon exposes
//!
//! * **`GET /metrics`** — OpenMetrics text from a [`telemetry::Registry`]:
//!   request counters, queue depth, in-flight and worker gauges,
//!   shed/timeout counters, queue-wait and service histograms,
//!   per-phase latency histograms harvested from
//!   the `span!` probes, and the cumulative `omega::stats` solver
//!   counters bridged at scrape time;
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
//!   capture as collapsed stacks);
//! * **tail sampling** — the one way to keep a job's artifacts. With
//!   `--slow-ms N`, only jobs slower than `N` milliseconds (or that
//!   error or degrade) retain their full span trace and replayable
//!   `.omega` provenance dumps under `<slow-dir>/<request-id>/`
//!   (`omega-replay` closes the loop from a slow request in the log to a
//!   standalone reproduction); fast, healthy jobs leave nothing on disk.
//!   `--slow-ms 0` keeps every job's artifacts.
//!
//! Each job runs under its own [`omega::trace::Collector`], the daemon's
//! only recording of the job's spans: it feeds the phase histograms, the
//! report's phases, and the retained `trace.json`. A job generates and
//! compiles; it is never interpreted, so its report carries no dynamic
//! cost (`table1` reports that per tool, once per kernel).
//!
//! ## The service core
//!
//! Admission checks the queue length against `--queue-depth` under the
//! queue lock — over capacity, the request gets `503` + `Retry-After`
//! immediately instead of a connection thread piling onto the pipeline.
//! Workers take admitted jobs in arrival order. A `batch` request runs N
//! spaces as one queue entry — one parse, one slot, per-space replies
//! streamed back in order.
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
use crate::queue::{Job, JobSource, JobSpec, Queue, TaskReply, Work};
use codegenplus::{pad_statements, CodeGen, Statement};
use omega::report::{now_ms, phase_totals, QueryReport};
use std::fmt::Write as _;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
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
    /// Size of the worker pool draining the job queue. `0` resolves to
    /// the machine's available parallelism.
    pub workers: usize,
    /// Bound of the admission queue: jobs queued beyond the pool. Over
    /// capacity, requests are answered `503` instead of queueing without
    /// bound.
    pub queue_depth: usize,
    /// Maximum time a job may wait in the queue before it is answered
    /// with an error instead of executing (`None` waits forever). Bounds
    /// the staleness of work under sustained overload: shed at admission
    /// when full, time out in queue when slow.
    pub queue_timeout: Option<Duration>,
    /// Tail-sampling threshold. When set, a job slower than this many
    /// milliseconds — or one that errors or degrades — retains its full
    /// span trace (`trace.json`) and buffered `.omega` provenance dumps
    /// under `<slow_dir>/<request-id>/`. Fast, healthy jobs retain
    /// nothing. `0` retains every job (useful in tests).
    pub slow_ms: Option<u64>,
    /// Where tail-sampled slow-job artifacts land (only with `slow_ms`).
    pub slow_dir: PathBuf,
    /// Structured request-log sink.
    pub log: LogTarget,
    /// Size-rotate the request-log file (`LogTarget::File`) once it
    /// exceeds this many MiB. `None` appends without bound.
    pub log_max_mb: Option<u64>,
    /// Rotated request-log generations to keep (`<log>.1` … `<log>.N`).
    pub log_keep: usize,
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
            log_max_mb: None,
            log_keep: 3,
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

/// Shared daemon state: config, metrics, logger, the job queue, the
/// report ring behind `/debug/requests`, and the counters the health
/// endpoint reports.
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
    queue: Queue,
    /// Resolved worker-pool size (`cfg.workers` with 0 resolved).
    workers: usize,
}

impl State {
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
    /// blocks the calling connection thread for `duration`, then
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
        out.push('"');
        match c.log_max_mb {
            Some(mb) => {
                let _ = write!(out, ",\"log_max_mb\":{mb}");
            }
            None => out.push_str(",\"log_max_mb\":null"),
        }
        let p = telemetry::profile::state();
        let _ = write!(
            out,
            ",\"log_keep\":{},\"log_rotations\":{},\"build\":\"",
            c.log_keep,
            self.logger.rotations(),
        );
        escape_into(&build_fingerprint(), &mut out);
        let _ = writeln!(out, "\",\"profiler_supported\":{}}}", p.supported);
        out
    }
}

/// A running daemon: the HTTP listener thread, the worker pool, and
/// per-connection submitter threads.
pub struct Daemon {
    state: Arc<State>,
    http_addr: SocketAddr,
    accept_thread: JoinHandle<()>,
    worker_threads: Vec<JoinHandle<()>>,
}

/// Binds the HTTP listener, starts the worker pool, and starts serving.
///
/// # Errors
///
/// Propagates bind/logger I/O errors. Port 0 in the address picks an
/// ephemeral port; read it back from [`Daemon::http_addr`].
pub fn spawn(cfg: Config) -> io::Result<Daemon> {
    let http = TcpListener::bind(&cfg.http_addr)?;
    let http_addr = http.local_addr()?;
    let logger = match (&cfg.log, cfg.log_max_mb) {
        (LogTarget::Stderr, _) => Logger::stderr(),
        (LogTarget::File(p), None) => Logger::file(p)?,
        (LogTarget::File(p), Some(mb)) => Logger::rotating_file(p, mb << 20, cfg.log_keep)?,
    };
    // The omega span hook keeps the per-thread span stack
    // `/debug/pprof/profile` samples are tagged with. Installing is
    // idempotent (first hook wins), so embedding several daemons in one
    // process (the tests do) is fine.
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
    state
        .logger
        .set_rotation_counter(Arc::clone(&state.metrics.log_rotations));
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
                .spawn(move || worker_loop(state))?,
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

    /// Asks the accept loop and the worker pool to stop (idempotent).
    /// In-flight connection handlers finish their current request;
    /// workers finish their current job; still-queued jobs are dropped
    /// and their submitters answered with a shutdown error.
    pub fn shutdown(&self) {
        self.state.stop.store(true, Ordering::SeqCst);
        self.state.queue.stop();
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

fn accept_loop(listener: TcpListener, state: Arc<State>) {
    for stream in listener.incoming() {
        if state.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let state = Arc::clone(&state);
        let _ = thread::Builder::new()
            .name("codegend-conn".into())
            .spawn(move || http::handle_conn(state, stream));
    }
}

// ---------------------------------------------------------------------------
// Job submission
// ---------------------------------------------------------------------------

/// Why a submission was refused: the queue was at capacity. Carries the
/// facts the refusal response needs; shed metrics and the log record are
/// already emitted when this is returned.
pub(crate) struct Shed {
    pub(crate) id: String,
    pub(crate) queued: usize,
    pub(crate) capacity: usize,
}

/// The request kind label for the `codegend_requests` family.
fn kind_of(work: &Work) -> &'static str {
    match work {
        Work::Single(spec) => match spec.source {
            JobSource::Kernel { .. } => "kernel",
            JobSource::Spaces(_) => "adhoc",
        },
        Work::Batch { .. } => "batch",
    }
}

/// Builds a [`Job`] from a parsed spec and enqueues it, assigning the id
/// (`r-NNNNNN` when the client chose none). On shed, the shed counter,
/// the `busy` request counter, and the request log record are all
/// emitted here; the caller only formats the `503`.
pub(crate) fn submit(
    state: &State,
    peer: &str,
    work: Work,
) -> Result<(String, mpsc::Receiver<TaskReply>), Shed> {
    let kind = kind_of(&work);
    let spec = match &work {
        Work::Single(spec) => spec,
        Work::Batch { base, .. } => base,
    };
    let id = spec
        .id
        .clone()
        .unwrap_or_else(|| format!("r-{:06}", state.req_seq.fetch_add(1, Ordering::SeqCst)));
    let (tx, rx) = mpsc::channel();
    let job = Job {
        id: id.clone(),
        peer: peer.to_owned(),
        work,
        enqueued: Instant::now(),
        reply: tx,
    };
    match state.queue.try_push(job) {
        Ok(()) => Ok((id, rx)),
        Err(job) => {
            state.metrics.shed.inc();
            state.metrics.requests.with(&[kind, "busy"]).inc();
            state.logger.log(
                Record::new("request")
                    .str("id", &job.id)
                    .str("peer", peer)
                    .str("kind", kind)
                    .str("status", "busy"),
            );
            Err(Shed {
                id: job.id,
                queued: state.queue.len(),
                capacity: state.queue.capacity(),
            })
        }
    }
}

// ---------------------------------------------------------------------------
// The worker pool
// ---------------------------------------------------------------------------

/// One worker: pop, enforce the queue timeout, execute, stream replies.
/// Exits when the queue stops.
fn worker_loop(state: Arc<State>) {
    while let Some(job) = state.queue.pop() {
        let queue_ns = job.enqueued.elapsed().as_nanos() as u64;
        state.metrics.queue_wait_seconds.observe_ns(queue_ns);
        if let Some(limit) = state.cfg.queue_timeout {
            if job.enqueued.elapsed() > limit {
                timeout_job(&state, job, queue_ns);
                continue;
            }
        }
        state.inflight.fetch_add(1, Ordering::SeqCst);
        state.metrics.inflight.add(1);
        let t0 = Instant::now();
        // The final reply is held back until the in-flight gauge is
        // decremented: a submitter that scrapes /metrics right after its
        // last reply must not see this job still counted as executing.
        let last = match &job.work {
            Work::Single(spec) => {
                let kind = kind_of(&job.work);
                let outcome = execute_task(&state, &job.id, &job.peer, kind, queue_ns, spec);
                Some(TaskReply {
                    id: job.id.clone(),
                    source: spec.source.tag(),
                    outcome,
                })
            }
            Work::Batch { base, spaces } => {
                let mut last = None;
                for (i, space) in spaces.iter().enumerate() {
                    let task_id = format!("{}#{i}", job.id);
                    let spec = JobSpec {
                        id: Some(task_id.clone()),
                        source: JobSource::Spaces(vec![space.clone()]),
                        effort: base.effort,
                    };
                    let outcome =
                        execute_task(&state, &task_id, &job.peer, "batch", queue_ns, &spec);
                    let reply = TaskReply {
                        id: task_id,
                        source: spec.source.tag(),
                        outcome,
                    };
                    if i + 1 == spaces.len() {
                        last = Some(reply);
                    } else if job.reply.send(reply).is_err() {
                        // The submitter hung up: stop burning the worker
                        // on replies nobody reads.
                        break;
                    }
                }
                last
            }
        };
        state.metrics.inflight.add(-1);
        state.inflight.fetch_sub(1, Ordering::SeqCst);
        state
            .metrics
            .service_seconds
            .observe_ns(t0.elapsed().as_nanos() as u64);
        if let Some(reply) = last {
            let _ = job.reply.send(reply);
        }
    }
}

/// Answers a job that overran the queue timeout: an error per expected
/// reply, the timeout counter, and a request log record. Counted
/// separately from sheds — a shed never entered the queue, a timeout
/// waited and lost.
fn timeout_job(state: &State, job: Job, queue_ns: u64) {
    let kind = kind_of(&job.work);
    state.metrics.timeout.inc();
    state.metrics.requests.with(&[kind, "timeout"]).inc();
    state.logger.log(
        Record::new("request")
            .str("id", &job.id)
            .str("peer", &job.peer)
            .str("kind", kind)
            .str("status", "timeout")
            .int("queue_ns", queue_ns as i64),
    );
    let msg = format!("timed out in queue after {}ms", queue_ns / 1_000_000);
    match &job.work {
        Work::Single(spec) => {
            let _ = job.reply.send(TaskReply {
                id: job.id.clone(),
                source: spec.source.tag(),
                outcome: Err(msg),
            });
        }
        Work::Batch { spaces, .. } => {
            for i in 0..spaces.len() {
                let sent = job.reply.send(TaskReply {
                    id: format!("{}#{i}", job.id),
                    source: "adhoc[1]".to_owned(),
                    outcome: Err(msg.clone()),
                });
                if sent.is_err() {
                    break;
                }
            }
        }
    }
}

/// Executes one task (a `gen`, or one space of a `batch`) on a worker:
/// span collection, the panic fence, the [`QueryReport`] wide event,
/// tail sampling, logging, and metrics.
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
    // Every job runs under its own span collector: the trace feeds the
    // phase histograms and the report, and is the artifact a slow job
    // retains. With tail sampling armed, provenance dumps are buffered in
    // memory so the keep/discard decision can happen after the job;
    // dropping the collector discards them.
    let slow_ms = state.cfg.slow_ms;
    let collector = omega::trace::Collector::new();
    if slow_ms.is_some() {
        collector.buffer_queries();
    }
    let stats_before = omega::stats::snapshot();
    // A panicking job must cost only that request, not the daemon: the
    // solver itself is panic-free, but ad-hoc inputs reach library
    // preconditions (space padding, arity checks) that assert.
    let result = catch_unwind(AssertUnwindSafe(|| run_job(state, spec, &collector)));
    let result = match result {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "job panicked".to_owned());
            Err(format!("job panicked: {msg}"))
        }
    };
    let request_ns = t0.elapsed().as_nanos() as u64;
    let counters = omega::stats::snapshot().delta(&stats_before);
    let trace = collector.finish();
    state.metrics.record_phases(&trace);
    let phases = phase_totals(&trace);
    let mut rep = match &result {
        Ok(out) => QueryReport {
            id: id.to_owned(),
            kind,
            source: source_tag.clone(),
            status: "ok",
            queue_ns,
            ts_ms: now_ms(),
            effort: out.effort,
            lines: out.lines,
            bytes: out.code.len(),
            codegen_ns: out.codegen_ns,
            compile_ns: out.compile_ns,
            request_ns,
            certainty: out.certainty.clone(),
            phases,
            counters,
            slow: false,
            retained: None,
            error: None,
        },
        Err(msg) => QueryReport {
            id: id.to_owned(),
            kind,
            source: source_tag.clone(),
            status: "err",
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
            counters,
            slow: false,
            retained: None,
            error: Some(msg.clone()),
        },
    };
    // Tail sampling: keep the full trace and provenance only for jobs
    // worth a second look — over the latency threshold, errored, or
    // degraded. Everything else leaves no artifacts.
    if let Some(ms) = slow_ms {
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
            let (kept, dropped) = match retain_slow_artifacts(&dir, &trace, &collector) {
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
    // The compact per-request record first (the line older tooling greps
    // for), then the canonical wide event — both carry the id, so either
    // one joins to the other and to the retained slow-job directory.
    match &result {
        Ok(out) => {
            state.jobs_total.fetch_add(1, Ordering::Relaxed);
            state.metrics.requests.with(&[kind, "ok"]).inc();
            state.metrics.request_seconds.observe_ns(request_ns);
            state.metrics.response_bytes.add(out.code.len() as u64);
            state.logger.log(
                Record::new("request")
                    .str("id", id)
                    .str("peer", peer)
                    .str("kind", kind)
                    .str("source", &source_tag)
                    .int("effort", out.effort as i64)
                    .str("status", "ok")
                    .int("lines", out.lines as i64)
                    .int("bytes", out.code.len() as i64)
                    .int("codegen_ns", out.codegen_ns as i64)
                    .int("compile_ns", out.compile_ns as i64)
                    .int("queue_ns", queue_ns as i64)
                    .int("request_ns", request_ns as i64)
                    .str("certainty", &out.certainty),
            );
        }
        Err(msg) => {
            state.metrics.requests.with(&[kind, "err"]).inc();
            state.metrics.request_seconds.observe_ns(request_ns);
            state.logger.log(
                Record::new("request")
                    .str("id", id)
                    .str("peer", peer)
                    .str("kind", kind)
                    .str("source", &source_tag)
                    .str("status", "err")
                    .str("msg", msg),
            );
        }
    }
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
    pub(crate) effort: usize,
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

/// Builds the statements, runs CodeGen+ (and the stand-in compiler for
/// its pass timings), and counts degradations per reason. Span collection is the caller's: the
/// collector is installed here but finished by `execute_task`, which
/// owns the trace for phase histograms, reports and tail sampling.
fn run_job(
    state: &State,
    spec: &JobSpec,
    collector: &omega::trace::Collector,
) -> Result<JobOutput, String> {
    let stmts = match &spec.source {
        JobSource::Kernel { name, n } => {
            let kernel = chill::recipes::all(*n)
                .into_iter()
                .find(|k| k.name == name)
                .ok_or_else(|| {
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
    let mut cg = CodeGen::new()
        .statements(stmts)
        .effort(effort)
        .trace(collector.clone());
    if let Some(d) = state.cfg.deadline {
        cg = cg.limits(omega::Limits {
            deadline: Some(Instant::now() + d),
            ..omega::Limits::default()
        });
    }
    let t0 = Instant::now();
    let g = cg.generate().map_err(|e| e.to_string())?;
    let codegen_ns = t0.elapsed().as_nanos() as u64;
    // The stand-in compiler pipeline, for its pass_* spans and the
    // compile-time column the batch harness also reports.
    let t1 = Instant::now();
    omega::trace::with_collector(Some(collector.clone()), || polyir::passes::compile(&g.code));
    let compile_ns = t1.elapsed().as_nanos() as u64;
    state.metrics.codegen_seconds.observe_ns(codegen_ns);
    for reason in g.certainty.reasons().iter() {
        state.metrics.degraded.with(&[reason.as_str()]).inc();
    }
    let mut code = g.to_c();
    if !code.ends_with('\n') {
        code.push('\n');
    }
    Ok(JobOutput {
        lines: polyir::lines_of_code(&g.code, &g.names),
        code,
        codegen_ns,
        compile_ns,
        certainty: g.certainty.to_string(),
        effort,
    })
}

/// Writes a tail-sampled job's artifacts under `dir`: the span trace as
/// `trace.json` (Chrome trace-event format, same exporter as `table1
/// --trace`) and the buffered `.omega` provenance dumps, replayable with
/// `omega-replay`. Returns the dumps written and those the collector's
/// buffer dropped.
fn retain_slow_artifacts(
    dir: &std::path::Path,
    trace: &omega::trace::Trace,
    collector: &omega::trace::Collector,
) -> io::Result<(usize, usize)> {
    std::fs::create_dir_all(dir)?;
    let mut f = std::fs::File::create(dir.join("trace.json"))?;
    trace.write_chrome_json(&mut f)?;
    collector.write_buffered_dumps(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_labels() {
        let spec = JobSpec {
            id: None,
            source: JobSource::Spaces(vec!["{ [i] : i = 0 }".into()]),
            effort: None,
        };
        assert_eq!(kind_of(&Work::Single(spec.clone())), "adhoc");
        assert_eq!(
            kind_of(&Work::Batch {
                base: spec,
                spaces: vec!["{ [i] : i = 0 }".into()],
            }),
            "batch"
        );
    }
}
