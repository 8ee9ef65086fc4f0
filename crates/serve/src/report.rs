//! The ring of recent [`QueryReport`]s behind `GET /debug/requests`.
//!
//! The report itself is [`omega::report::QueryReport`], shared with the
//! batch harness (`table1 --json`); the daemon only keeps the most recent
//! ones in memory.

use omega::report::QueryReport;
use std::collections::VecDeque;
use std::sync::Mutex;

/// A bounded FIFO of the most recent reports, behind `/debug/requests`.
pub(crate) struct ReportRing {
    cap: usize,
    ring: Mutex<VecDeque<QueryReport>>,
}

impl ReportRing {
    pub(crate) fn new(cap: usize) -> ReportRing {
        ReportRing {
            cap,
            ring: Mutex::new(VecDeque::new()),
        }
    }

    pub(crate) fn push(&self, report: QueryReport) {
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() == self.cap {
            ring.pop_front();
        }
        ring.push_back(report);
    }

    /// All retained reports as a JSON array, oldest first.
    pub(crate) fn to_json(&self) -> String {
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::from("[\n");
        for (i, r) in ring.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&r.to_json());
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(id: String) -> QueryReport {
        QueryReport {
            id,
            kind: "kernel",
            source: "gemm/n=20".into(),
            status: "ok",
            queue_ns: 0,
            ts_ms: 0,
            effort: 1,
            lines: 10,
            bytes: 200,
            codegen_ns: 0,
            compile_ns: 0,
            request_ns: 0,
            certainty: "exact".into(),
            phases: Vec::new(),
            counters: omega::stats::Snapshot::default(),
            slow: false,
            retained: None,
            error: None,
        }
    }

    #[test]
    fn ring_is_bounded_fifo() {
        let ring = ReportRing::new(2);
        for i in 0..4 {
            ring.push(report(format!("r-{i}")));
        }
        let json = ring.to_json();
        assert!(!json.contains("\"r-1\"") && json.contains("\"r-2\"") && json.contains("\"r-3\""));
        // Oldest first.
        assert!(json.find("r-2").unwrap() < json.find("r-3").unwrap());
    }
}
