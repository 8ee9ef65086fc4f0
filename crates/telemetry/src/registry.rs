//! Metric types and the process registry.

use crate::histogram::Histogram;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A monotone counter. Updates are single relaxed atomic adds.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the cumulative value. Only for *bridging*: when this
    /// counter mirrors an external cumulative source (e.g. an
    /// `omega::stats` field) that is read whole at scrape time, a store is
    /// the race-free way to publish it. Never mix with [`Counter::add`] on
    /// the same counter.
    pub fn set_total(&self, v: u64) {
        self.v.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed value (queue depths, in-flight jobs).
#[derive(Debug, Default)]
pub struct Gauge {
    v: AtomicI64,
}

impl Gauge {
    /// Adds `n` (negative to decrement).
    pub fn add(&self, n: i64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value.
    pub fn set(&self, v: i64) {
        self.v.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A family of metrics of one type sharing a name and a label schema; each
/// distinct label-value tuple owns one child metric.
///
/// Children are created on first use under a mutex and cached; hold the
/// returned `Arc` on hot paths so steady-state updates never touch the
/// lock.
#[derive(Debug)]
pub struct Family<M> {
    label_names: Vec<&'static str>,
    children: Mutex<Vec<(Vec<String>, Arc<M>)>>,
}

impl<M: Default> Family<M> {
    fn new(label_names: &[&'static str]) -> Family<M> {
        Family {
            label_names: label_names.to_vec(),
            children: Mutex::new(Vec::new()),
        }
    }

    /// The child metric for a label-value tuple, created on first use.
    ///
    /// # Panics
    ///
    /// Panics when `values.len()` differs from the family's label schema
    /// (a programming error at the call site).
    pub fn with(&self, values: &[&str]) -> Arc<M> {
        assert_eq!(
            values.len(),
            self.label_names.len(),
            "label value count must match the family's schema {:?}",
            self.label_names
        );
        let mut children = lock(&self.children);
        if let Some((_, m)) = children.iter().find(|(v, _)| v == values) {
            return Arc::clone(m);
        }
        let m = Arc::new(M::default());
        children.push((values.iter().map(|s| s.to_string()).collect(), m.clone()));
        m
    }

    /// Label names of this family's schema.
    pub fn label_names(&self) -> &[&'static str] {
        &self.label_names
    }

    /// Snapshot of `(label values, metric)` pairs in first-use order.
    pub(crate) fn children(&self) -> Vec<(Vec<String>, Arc<M>)> {
        lock(&self.children).clone()
    }
}

pub(crate) enum FamilyKind {
    Counter(Arc<Family<Counter>>),
    Gauge(Arc<Family<Gauge>>),
    Histogram(Arc<Family<Histogram>>),
}

pub(crate) struct Entry {
    pub(crate) name: String,
    pub(crate) help: String,
    pub(crate) kind: FamilyKind,
}

/// A process-local registry of metric families; clone-cheap (an `Arc`).
///
/// Families register once (name collisions panic — metric names are
/// static program structure, not data) and render in registration order
/// via [`Registry::expose`].
#[derive(Clone, Default)]
pub struct Registry {
    pub(crate) entries: Arc<Mutex<Vec<Entry>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers a label-less counter and returns its handle.
    /// Register the name *without* the `_total` suffix — exposition adds
    /// it, per OpenMetrics.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_vec(name, help, &[]).with(&[])
    }

    /// Registers a counter family split by `labels`.
    pub fn counter_vec(
        &self,
        name: &str,
        help: &str,
        labels: &[&'static str],
    ) -> Arc<Family<Counter>> {
        assert!(
            !name.ends_with("_total"),
            "register counter {name:?} without the _total suffix (exposition adds it)"
        );
        let fam = Arc::new(Family::new(labels));
        self.register(name, help, labels, FamilyKind::Counter(fam.clone()));
        fam
    }

    /// Registers a label-less gauge and returns its handle.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_vec(name, help, &[]).with(&[])
    }

    /// Registers a gauge family split by `labels`.
    pub fn gauge_vec(&self, name: &str, help: &str, labels: &[&'static str]) -> Arc<Family<Gauge>> {
        let fam = Arc::new(Family::new(labels));
        self.register(name, help, labels, FamilyKind::Gauge(fam.clone()));
        fam
    }

    /// Registers a label-less histogram and returns its handle.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_vec(name, help, &[]).with(&[])
    }

    /// Registers a histogram family split by `labels`.
    pub fn histogram_vec(
        &self,
        name: &str,
        help: &str,
        labels: &[&'static str],
    ) -> Arc<Family<Histogram>> {
        let fam = Arc::new(Family::new(labels));
        self.register(name, help, labels, FamilyKind::Histogram(fam.clone()));
        fam
    }

    fn register(&self, name: &str, help: &str, labels: &[&'static str], kind: FamilyKind) {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        for l in labels {
            assert!(valid_label_name(l), "invalid label name {l:?}");
        }
        let mut entries = lock(&self.entries);
        assert!(
            !entries.iter().any(|e| e.name == name),
            "metric {name:?} registered twice"
        );
        entries.push(Entry {
            name: name.to_owned(),
            help: help.to_owned(),
            kind,
        });
    }
}

/// `[a-zA-Z_:][a-zA-Z0-9_:]*` — the Prometheus metric-name alphabet.
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// `[a-zA-Z_][a-zA-Z0-9_]*`, and never the histogram-reserved `le`.
fn valid_label_name(name: &str) -> bool {
    if name == "le" {
        return false;
    }
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("jobs", "Jobs.");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = reg.gauge("inflight", "In-flight.");
        g.add(3);
        g.add(-1);
        assert_eq!(g.get(), 2);
    }

    #[test]
    fn label_children_are_cached_per_value_tuple() {
        let reg = Registry::new();
        let fam = reg.counter_vec("reqs", "Requests.", &["status"]);
        fam.with(&["ok"]).inc();
        fam.with(&["ok"]).inc();
        fam.with(&["err"]).inc();
        assert_eq!(fam.with(&["ok"]).get(), 2);
        assert_eq!(fam.with(&["err"]).get(), 1);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let reg = Registry::new();
        reg.counter("dup", "a");
        reg.counter("dup", "b");
    }

    #[test]
    #[should_panic(expected = "_total suffix")]
    fn counter_with_total_suffix_panics() {
        Registry::new().counter("requests_total", "x");
    }

    #[test]
    fn name_validation() {
        assert!(valid_metric_name("omega_sat_queries"));
        assert!(valid_metric_name(":ns_a:b_1"));
        assert!(!valid_metric_name("1bad"));
        assert!(!valid_metric_name("has space"));
        assert!(!valid_metric_name(""));
        assert!(valid_label_name("phase"));
        assert!(!valid_label_name("le"));
        assert!(!valid_label_name("9x"));
    }
}
