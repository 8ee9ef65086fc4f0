//! `QueryReport` — the canonical per-job wide event.
//!
//! One record per codegen job carrying everything cost attribution
//! needs: identity (id, kind, source), outcome (status, certainty,
//! error), sizes (lines, bytes), wall times (codegen, compile, whole
//! request), per-phase inclusive times harvested from the span trace,
//! the [`crate::stats`] counter *deltas* the job caused, and the
//! tail-sampling verdict (`slow`, retained-artifact path).
//!
//! The report lives here, next to the [`crate::stats::Snapshot`],
//! [`crate::Certainty`] and [`crate::trace::Trace`] it is built from, so
//! every producer can build one without depending on another:
//!
//! * the `codegend` daemon's structured request log (one
//!   `"event":"report"` JSON line per job) and its in-memory ring behind
//!   `GET /debug/requests`;
//! * `table1 --json`, whose rows embed a `QueryReport` per kernel so
//!   batch and daemon attribution diff field-for-field (see
//!   `scripts/check_report.py`).
//!
//! Counter deltas are process-wide counters sampled around the job:
//! under concurrent jobs a delta can include a neighbor's events. That
//! is documented imprecision (DESIGN.md "Introspection"), acceptable
//! because attribution is for diagnosis, not billing; at `table1`'s
//! sequential pace the deltas are exact.

use std::fmt::Write as _;

use crate::trace::escape_json as esc;

/// The per-job wide event. Field meanings are documented on the JSON
/// rendering ([`QueryReport::to_json`]); all fields are public so batch
/// harnesses (`table1`) can assemble reports without a daemon.
#[derive(Clone, Debug)]
pub struct QueryReport {
    /// Request id (daemon) or synthetic id (`table1-<kernel>`).
    pub id: String,
    /// `kernel`, `adhoc` or `batch`.
    pub kind: &'static str,
    /// Job source tag (kernel name + size, or space count).
    pub source: String,
    /// `ok` or `err`.
    pub status: &'static str,
    /// Time the job waited in the admission queue before a worker picked
    /// it up (0 for batch harnesses that run inline).
    pub queue_ns: u64,
    /// Unix milliseconds at completion ([`now_ms`]).
    pub ts_ms: u64,
    /// Overhead-removal effort the job ran at.
    pub effort: usize,
    /// Lines of generated code (0 on error).
    pub lines: usize,
    /// Bytes of generated code (0 on error).
    pub bytes: usize,
    /// Code-generation wall time.
    pub codegen_ns: u64,
    /// Stand-in compiler wall time.
    pub compile_ns: u64,
    /// End-to-end wall time (request parse to response, or the whole
    /// measurement for batch reports).
    pub request_ns: u64,
    /// The [`crate::Certainty`] rendering: `exact` or
    /// `approximate:reason+reason` (empty on error).
    pub certainty: String,
    /// Per-phase inclusive nanoseconds from the span collector, empty
    /// when the job ran untraced. Phase vocabulary = [`is_phase_name`].
    pub phases: Vec<(&'static str, u64)>,
    /// [`crate::stats`] counter deltas over the job.
    pub counters: crate::stats::Snapshot,
    /// True when tail sampling retained this job (over `--slow-ms`,
    /// errored, or degraded).
    pub slow: bool,
    /// Directory of retained artifacts (trace + `.omega` dumps), when
    /// any were kept.
    pub retained: Option<String>,
    /// Error message for `status == "err"`.
    pub error: Option<String>,
}

impl QueryReport {
    /// Renders the report as one self-contained JSON object (no trailing
    /// newline), `"event":"report"` first so log processors can filter on
    /// the discriminator. Optional fields (`retained`, `error`) are
    /// omitted rather than `null`; `counters` carries every
    /// [`crate::stats`] field by name plus the derived `exact_solves`, the
    /// exact vocabulary `omega-replay --stats` emits.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"event\":\"report\",\"id\":\"");
        esc(&self.id, &mut out);
        out.push_str("\",\"kind\":\"");
        esc(self.kind, &mut out);
        out.push_str("\",\"source\":\"");
        esc(&self.source, &mut out);
        out.push_str("\",\"status\":\"");
        esc(self.status, &mut out);
        let _ = write!(
            out,
            "\",\"ts_ms\":{},\"effort\":{},\
             \"lines\":{},\"bytes\":{},\"codegen_ns\":{},\"compile_ns\":{},\"queue_ns\":{},\"request_ns\":{}",
            self.ts_ms,
            self.effort,
            self.lines,
            self.bytes,
            self.codegen_ns,
            self.compile_ns,
            self.queue_ns,
            self.request_ns,
        );
        out.push_str(",\"certainty\":\"");
        esc(&self.certainty, &mut out);
        out.push_str("\",\"phases\":{");
        for (i, (name, ns)) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{ns}");
        }
        out.push_str("},\"counters\":{");
        for (i, (name, value)) in self.counters.fields().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{value}");
        }
        let _ = write!(
            out,
            "}},\"exact_solves\":{},\"slow\":{}",
            self.counters.exact_solves(),
            self.slow
        );
        if let Some(dir) = &self.retained {
            out.push_str(",\"retained\":\"");
            esc(dir, &mut out);
            out.push('"');
        }
        if let Some(msg) = &self.error {
            out.push_str(",\"error\":\"");
            esc(msg, &mut out);
            out.push('"');
        }
        out.push('}');
        out
    }
}

/// The span names that count as pipeline *phases* for attribution:
/// scanner phases, polyir passes, lift sub-phases, if-merging, and the
/// solver query entry points. Everything a `QueryReport` or the
/// `codegend_phase_seconds` histograms aggregate by; names are static
/// strings in the probes, so cardinality is program-bounded.
pub fn is_phase_name(name: &str) -> bool {
    name.starts_with("cg_")
        || name.starts_with("pass_")
        || name.starts_with("lift_")
        || matches!(
            name,
            "merge_ifs"
                | "sat_query"
                | "sat_exact"
                | "gist_query"
                | "gist_exact"
                | "fm_eliminate"
                | "project"
                | "hull"
                | "approximate"
        )
}

/// Aggregates a finished span trace into `(phase, inclusive ns)` totals
/// over the [`is_phase_name`] vocabulary, sorted by phase name so the
/// rendering is deterministic.
pub fn phase_totals(trace: &crate::trace::Trace) -> Vec<(&'static str, u64)> {
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    trace.walk(&mut |span| {
        if !is_phase_name(span.name) {
            return;
        }
        match totals.iter_mut().find(|(n, _)| *n == span.name) {
            Some((_, ns)) => *ns += span.duration_ns(),
            None => totals.push((span.name, span.duration_ns())),
        }
    });
    totals.sort_by_key(|(n, _)| *n);
    totals
}

/// Unix milliseconds now — the `ts_ms` stamp for reports built outside
/// a logger.
pub fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> QueryReport {
        QueryReport {
            id: "r-000001".into(),
            kind: "kernel",
            source: "gemm/n=20".into(),
            status: "ok",
            queue_ns: 700,
            ts_ms: 123,
            effort: 1,
            lines: 10,
            bytes: 200,
            codegen_ns: 1_000,
            compile_ns: 2_000,
            request_ns: 5_000,
            certainty: "exact".into(),
            phases: vec![("cg_generate", 900)],
            counters: crate::stats::Snapshot::default(),
            slow: false,
            retained: None,
            error: None,
        }
    }

    #[test]
    fn report_json_shape() {
        let json = sample().to_json();
        assert!(json.starts_with("{\"event\":\"report\",\"id\":\"r-000001\""));
        assert!(json.contains("\"queue_ns\":700"));
        assert!(json.contains("\"certainty\":\"exact\",\"phases\":{\"cg_generate\":900}"));
        assert!(json.contains("\"counters\":{\"tier0_unsat\":0"));
        assert!(json.contains("\"exact_solves\":0"));
        assert!(!json.contains("retained"));
        assert!(!json.contains("\"error\""));
        assert!(json.ends_with('}'));
    }

    #[test]
    fn optional_fields_render_when_present() {
        let mut r = sample();
        r.status = "err";
        r.error = Some("bad \"input\"\n".into());
        r.slow = true;
        r.retained = Some("slow/r-1".into());
        let json = r.to_json();
        assert!(json.contains("\"error\":\"bad \\\"input\\\"\\u000a\""));
        assert!(json.contains("\"retained\":\"slow/r-1\""));
        assert!(json.contains("\"slow\":true"));
    }

    #[test]
    fn phase_names() {
        assert!(is_phase_name("cg_lower"));
        assert!(is_phase_name("pass_fold"));
        assert!(is_phase_name("sat_exact"));
        assert!(!is_phase_name("anything_else"));
    }

    #[test]
    fn phase_totals_aggregate_and_sort() {
        let c = crate::trace::Collector::new();
        crate::trace::with_collector(Some(c.clone()), || {
            let _a = crate::span!(cg_generate);
            let _b = crate::span!(fm_eliminate);
            drop(_b);
            let _b2 = crate::span!(fm_eliminate);
        });
        let totals = phase_totals(&c.finish());
        let names: Vec<&str> = totals.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["cg_generate", "fm_eliminate"]);
    }
}
