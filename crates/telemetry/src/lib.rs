//! # telemetry — live metrics for long-running codegen services
//!
//! The tracing layer (`omega::trace`) answers "where did *this run* spend
//! its time" after the fact; this crate answers "what is the process doing
//! *right now*" for a scraper. It provides a [`Registry`] of named metric
//! families — [`Counter`]s, [`Gauge`]s and log₂-bucketed latency
//! [`Histogram`]s, each optionally split by a small fixed label set — plus
//! OpenMetrics/Prometheus text exposition ([`Registry::expose`]), a
//! structured JSON log-line builder ([`log::Record`]), and an always-on
//! bounded [`flight`] recorder of recent span events, drainable at any
//! moment as a Chrome trace.
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
//!   `floor(log2(ns))` — the same scheme as `omega::trace::LogHistogram` —
//!   and expose *cumulative* bucket counts with the OpenMetrics
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

pub mod flight;
pub mod log;
pub mod profile;

mod expose;
mod histogram;
mod registry;

pub use histogram::{Histogram, HistogramSnapshot};
pub use registry::{Counter, Family, Gauge, Registry};

/// The span sink to install as `omega::trace`'s process-wide span hook
/// (`omega::trace::install_span_hook(telemetry::span_hook)`). Every span
/// open/close feeds the [`flight`] recorder (a no-op until
/// [`flight::enable`]) and the [`profile`]r's per-thread span stack, so
/// samples are attributed to the innermost active solver phase. Opens
/// record flight-then-profile and closes undo them in reverse, keeping
/// both sinks LIFO.
pub fn span_hook(begin: bool, name: &'static str) {
    if begin {
        flight::record(flight::FlightKind::Begin, name);
        profile::span_enter(name);
    } else {
        profile::span_exit();
        flight::record(flight::FlightKind::End, name);
    }
}
