//! The daemon's metric families and the `omega::stats` bridge.
//!
//! Naming conventions (documented in `DESIGN.md` and validated by
//! `scripts/check_metrics.py`):
//!
//! * everything the daemon itself observes is `codegend_*`; solver
//!   counters bridged from `omega::stats` are `omega_*`;
//! * counters are registered without `_total` (exposition appends it);
//! * durations are histograms named `*_seconds` in base seconds;
//! * label keys are closed sets baked into the binary (`kind`, `status`,
//!   `phase`, `reason`, `event`) — never request-supplied strings, so
//!   cardinality is bounded by program structure.

use std::sync::Arc;
use telemetry::{Counter, Family, Gauge, Histogram, Registry};

/// Handles to every family the daemon updates. Acquired once at startup;
/// request threads touch only the atomics behind these `Arc`s.
pub struct Metrics {
    /// The backing registry (exposed at `/metrics`).
    pub registry: Registry,
    /// Requests by `kind` (`kernel`/`adhoc`/`batch`, or `unread` for a
    /// connection shed before its request was read) and `status`
    /// (`ok`/`err`/`busy`/`timeout`).
    pub requests: Arc<Family<Counter>>,
    /// Jobs currently executing on the worker pool.
    pub inflight: Arc<Gauge>,
    /// Connections currently waiting for a worker (set at scrape time
    /// from the queue).
    pub queue_depth: Arc<Gauge>,
    /// Resolved size of the worker pool.
    pub workers: Arc<Gauge>,
    /// Connections answered `503` at accept because every worker and
    /// queue slot was taken.
    pub shed: Arc<Counter>,
    /// Jobs that waited past the queue timeout and were answered with an
    /// error instead of executing.
    pub timeout: Arc<Counter>,
    /// Time from accept to a worker taking a `POST` job's connection.
    pub queue_wait_seconds: Arc<Histogram>,
    /// Time workers spent executing jobs (all spaces of a batch).
    pub service_seconds: Arc<Histogram>,
    /// Jobs whose certificate degraded, by `reason`
    /// (`omega::OmegaError::as_str` tags, e.g. `deadline-exceeded`).
    pub degraded: Arc<Family<Counter>>,
    /// Jobs retained by tail sampling (`--slow-ms`), by trigger
    /// (`threshold`/`error`/`degraded`).
    pub slow: Arc<Family<Counter>>,
    /// End-to-end wall time per job (parse to response written).
    pub request_seconds: Arc<Histogram>,
    /// Code-generation wall time per job.
    pub codegen_seconds: Arc<Histogram>,
    /// Per-phase wall time, one total per phase per job, by `phase`
    /// (span names: `cg_*` scanner phases, `pass_*` polyir passes,
    /// `sat_*`/`gist_*` solver queries).
    pub phase_seconds: Arc<Family<Histogram>>,
    /// Total bytes of generated code returned to clients.
    pub response_bytes: Arc<Counter>,
    /// Bridged `omega::stats` counters, by `event` (field name).
    pub solver_events: Arc<Family<Counter>>,
    /// Seconds since the daemon started (set at scrape time).
    pub uptime_seconds: Arc<Gauge>,
}

impl Metrics {
    /// Registers every family into a fresh registry.
    pub fn new() -> Metrics {
        let registry = Registry::new();
        Metrics {
            requests: registry.counter_vec(
                "codegend_requests",
                "Requests handled, by kind (kernel/adhoc/batch, unread for a shed connection) and status (ok/err/busy/timeout).",
                &["kind", "status"],
            ),
            inflight: registry.gauge(
                "codegend_inflight_jobs",
                "Jobs currently executing on the worker pool.",
            ),
            queue_depth: registry.gauge(
                "codegend_queue_depth",
                "Connections currently queued awaiting a worker.",
            ),
            workers: registry.gauge("codegend_workers", "Resolved size of the worker pool."),
            shed: registry.counter(
                "codegend_jobs_shed",
                "Connections answered 503 at accept because every worker and queue slot was taken.",
            ),
            timeout: registry.counter(
                "codegend_jobs_timeout",
                "Jobs that overran the queue timeout before a worker picked them up.",
            ),
            queue_wait_seconds: registry.histogram(
                "codegend_queue_wait_seconds",
                "Time from accept to a worker taking a POST job's connection.",
            ),
            service_seconds: registry.histogram(
                "codegend_service_seconds",
                "Worker execution time per job (every space of a batch).",
            ),
            degraded: registry.counter_vec(
                "codegend_jobs_degraded",
                "Jobs whose degradation certificate was Approximate, by limit reason.",
                &["reason"],
            ),
            slow: registry.counter_vec(
                "codegend_jobs_slow",
                "Jobs retained by tail sampling, by trigger (threshold/error/degraded).",
                &["reason"],
            ),
            request_seconds: registry.histogram(
                "codegend_request_seconds",
                "End-to-end request latency (parse to response written).",
            ),
            codegen_seconds: registry.histogram(
                "codegend_codegen_seconds",
                "Code-generation wall time per job.",
            ),
            phase_seconds: registry.histogram_vec(
                "codegend_phase_seconds",
                "Per-phase wall time, one observation per phase per job: the job's total over its spans of that name (cg_* scanner phases, pass_* polyir passes, sat_*/gist_* solver queries).",
                &["phase"],
            ),
            response_bytes: registry.counter(
                "codegend_response_bytes",
                "Total bytes of generated code returned in ok responses.",
            ),
            solver_events: registry.counter_vec(
                "omega_solver_events",
                "Cumulative omega::stats counters (tier verdicts, cache traffic, degradations), by event.",
                &["event"],
            ),
            uptime_seconds: registry.gauge(
                "codegend_uptime_seconds",
                "Seconds since the daemon started.",
            ),
            registry,
        }
    }

    /// Publishes the current `omega::stats` snapshot into the bridge
    /// counters. Called at scrape time: the snapshot is already cumulative
    /// (exactly a Prometheus counter), so a store per field is race-free —
    /// no delta bookkeeping that concurrent jobs could double-count.
    pub fn bridge_solver_stats(&self) {
        for (name, value) in omega::stats::snapshot().fields() {
            self.solver_events.with(&[name]).set_total(value);
        }
    }

    /// Observes one job's per-phase totals (`(phase, ns)`, as in
    /// `QueryReport::phases`) into the `phase_seconds` histograms: one
    /// observation per phase per job.
    pub fn record_phases(&self, phases: &[(&'static str, u64)]) {
        for &(name, ns) in phases {
            self.phase_seconds.with(&[name]).observe_ns(ns);
        }
    }
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bridge_exposes_every_stats_field() {
        let m = Metrics::new();
        m.bridge_solver_stats();
        let text = m.registry.expose();
        for (name, _) in omega::stats::snapshot().fields() {
            let sample = format!("omega_solver_events_total{{event=\"{name}\"}}");
            assert!(text.contains(&sample), "missing bridge sample {sample}");
        }
    }

    #[test]
    fn queue_families_are_unlabeled() {
        let m = Metrics::new();
        m.shed.inc();
        m.timeout.inc();
        m.queue_wait_seconds.observe_ns(1_000);
        m.service_seconds.observe_ns(2_000);
        m.queue_depth.set(3);
        let text = m.registry.expose();
        assert!(text.contains("codegend_jobs_shed_total 1"));
        assert!(text.contains("codegend_jobs_timeout_total 1"));
        assert!(text.contains("codegend_queue_wait_seconds_bucket{le="));
        assert!(text.contains("codegend_service_seconds_count 1"));
        assert!(text.contains("codegend_queue_depth 3"));
    }
}
