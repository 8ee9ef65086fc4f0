//! # telemetry — live metrics for long-running codegen services
//!
//! The tracing layer (`omega::trace`) answers "where did *this run* spend
//! its time" after the fact; this crate answers "what is the process doing
//! *right now*" for a scraper. It provides a [`Registry`] of named metric
//! families — [`Counter`]s, [`Gauge`]s and log₂-bucketed latency
//! [`Histogram`]s, each optionally split by a small fixed label set — plus
//! OpenMetrics/Prometheus text exposition ([`Registry::expose`]), a
//! structured JSON log-line builder ([`log::Record`]), and a sampling
//! [`profile`]r whose samples carry the innermost active span. The same
//! per-thread span stack times a job's spans per name while a
//! [`profile::timed`] scope is armed.
//!
//! # Design
//!
//! * **Lock-light hot path.** A metric handle (`Arc<Counter>` etc.) is
//!   acquired once, at registration or first label lookup; after that an
//!   update is a single relaxed atomic RMW. The registry's mutexes guard
//!   only registration and label-child creation — never observations, and
//!   never the scrape (which reads the atomics directly).
//! * **Skew-friendly histograms.** Polyhedral solver queries span six
//!   orders of magnitude of latency, so histograms bucket by
//!   `floor(log2(ns))` and expose *cumulative* bucket counts with the OpenMetrics
//!   invariants: counts monotone non-decreasing in `le`, the `+Inf`
//!   bucket equal to `_count`, `_sum` the exact nanosecond sum (reported
//!   in seconds).
//! * **Exposition is a pure read.** [`Registry::expose`] renders every
//!   family in registration order; label children render in first-use
//!   order. Counters are rendered with the OpenMetrics `_total` suffix
//!   (register them *without* it).
//!
//! # Example
//!
//! ```
//! use telemetry::Registry;
//!
//! let reg = Registry::new();
//! let reqs = reg.counter_vec("requests", "Requests served.", &["status"]);
//! let lat = reg.histogram("latency_seconds", "Request latency.");
//! reqs.with(&["ok"]).inc();
//! lat.observe_ns(1_500);
//! let text = reg.expose();
//! assert!(text.contains("requests_total{status=\"ok\"} 1"));
//! assert!(text.ends_with("# EOF\n"));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod log;
pub mod profile;

mod expose;
mod histogram;
mod registry;

pub use histogram::{Histogram, HistogramSnapshot};
pub use registry::{Counter, Family, Gauge, Registry};

/// The one always-on span sink: install it as `omega::trace`'s
/// process-wide span hook (`omega::trace::install_span_hook(telemetry::span_hook)`).
/// Every span open/close pushes or pops the [`profile`]r's per-thread span
/// stack, so samples are attributed to the innermost active solver
/// phase, and inside a [`profile::timed`] scope each close adds the span's
/// wall time to that scope's per-name totals — how `codegend` and `table1`
/// get a job's phases without recording a span tree. The stack lives here
/// rather than in the span collector because the SIGPROF handler needs
/// lock-free, async-signal-safe reads.
pub fn span_hook(begin: bool, name: &'static str) {
    if begin {
        profile::span_enter(name);
    } else {
        profile::span_exit();
    }
}
