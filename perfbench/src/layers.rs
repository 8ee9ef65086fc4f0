//! Layer self times from a span trace.
//!
//! A span's self time is its duration minus the part of it that spans
//! nested inside it on the same thread cover. The solver records its
//! exact queries (`sat_exact`, `gist_exact`) as detached trace roots, so
//! nesting is taken from the time intervals on each thread rather than
//! from the trace's tree. Only the calling thread's timeline is split:
//! its self times add up to the wall time of the traced calls. Work the
//! default configuration hands to worker threads shows as the calling
//! thread waiting in `par_map` (`par.self_ms`), and its busy time is
//! reported on its own (`par.worker_ms`).

use omega::trace::Trace;
use std::cmp::Reverse;

/// Reported layers and the span names whose self time they take. A span
/// whose name is not listed takes the layer of the span enclosing it.
pub const LAYERS: &[(&str, &[&str])] = &[
    (
        "core.generate_ms",
        &["bench_cgplus", "cg_generate", "cg_minmax"],
    ),
    ("core.prepare_ms", &["cg_prepare"]),
    ("core.init_ast_ms", &["cg_init_ast"]),
    ("core.recompute_ms", &["cg_recompute"]),
    ("core.lift_ms", &["cg_lift", "lift_pass", "lift_split"]),
    ("core.merge_ifs_ms", &["merge_ifs"]),
    ("core.lower_ms", &["cg_lower"]),
    ("cloog.self_ms", &["bench_cloog"]),
    ("omega.sat_probe_ms", &["sat_query"]),
    ("omega.sat_exact_ms", &["sat_exact"]),
    ("omega.fm_ms", &["fm_eliminate"]),
    ("omega.gist_probe_ms", &["gist_query"]),
    ("omega.gist_exact_ms", &["gist_exact"]),
    ("omega.hull_ms", &["hull"]),
    ("omega.project_ms", &["project", "approximate"]),
    ("par.self_ms", &["par_map", "par_item", "par_task"]),
    ("polyir.compile_ms", &["bench_compile", "pass_pipeline"]),
];

fn layer_of(name: &str) -> Option<usize> {
    LAYERS.iter().position(|(_, names)| names.contains(&name))
}

/// Self time per layer on the calling thread, plus worker-thread time.
#[derive(Clone, Debug, Default)]
pub struct Split {
    /// Nanoseconds per entry of [`LAYERS`].
    pub layer_ns: Vec<i64>,
    /// Calling-thread time in spans outside every listed layer.
    pub unmapped_ns: i64,
    /// Busy time of threads other than the calling one.
    pub worker_ns: u64,
}

impl Split {
    /// Adds another split (per-pass splits sum to a run total).
    pub fn add(&mut self, other: &Split) {
        self.layer_ns.resize(LAYERS.len(), 0);
        for (a, b) in self.layer_ns.iter_mut().zip(&other.layer_ns) {
            *a += b;
        }
        self.unmapped_ns += other.unmapped_ns;
        self.worker_ns += other.worker_ns;
    }

    /// Sum of the layer self times.
    pub fn total_ns(&self) -> i64 {
        self.layer_ns.iter().sum()
    }
}

/// Splits `trace` by layer. The calling thread is the one that recorded
/// the benchmark's own `bench_*` spans.
pub fn split(trace: &Trace) -> Split {
    let mut spans: Vec<(u64, u64, u64, &'static str)> = Vec::new();
    trace.walk(&mut |s| spans.push((s.thread, s.start_ns, s.end_ns.max(s.start_ns), s.name)));
    let main = spans
        .iter()
        .find(|s| s.3.starts_with("bench_"))
        .map(|s| s.0);
    // Per thread, outer spans first: by start, then longest first.
    spans.sort_by_key(|&(thread, start, end, _)| (thread, start, Reverse(end)));
    let mut out = Split {
        layer_ns: vec![0; LAYERS.len()],
        ..Split::default()
    };
    // Open enclosing spans of the current thread: (end, layer).
    let mut stack: Vec<(u64, Option<usize>)> = Vec::new();
    let mut thread = None;
    for (t, start, end, name) in spans {
        if thread != Some(t) {
            stack.clear();
            thread = Some(t);
        }
        while stack.last().is_some_and(|&(open_end, _)| open_end < end) {
            stack.pop();
        }
        let dur = (end - start) as i64;
        if Some(t) != main {
            if stack.is_empty() {
                out.worker_ns += dur as u64;
            }
            stack.push((end, None));
            continue;
        }
        let parent = stack.last().map(|&(_, layer)| layer);
        let layer = layer_of(name).or(parent.flatten());
        let mut credit = |layer: Option<usize>, ns: i64| match layer {
            Some(i) => out.layer_ns[i] += ns,
            None => out.unmapped_ns += ns,
        };
        credit(layer, dur);
        if let Some(p) = parent {
            credit(p, -dur);
        }
        stack.push((end, layer));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega::trace::{with_collector, Collector};
    use std::time::Duration;

    #[test]
    fn self_times_add_up_to_the_outer_span() {
        let c = Collector::new();
        with_collector(Some(c.clone()), || {
            let _outer = omega::span!(bench_cloog);
            std::thread::sleep(Duration::from_millis(2));
            {
                let _probe = omega::span!(sat_query);
                std::thread::sleep(Duration::from_millis(2));
                // Detached, like the solver's exact queries.
                let _exact = omega::root_span!(sat_exact);
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        let trace = c.finish();
        let s = split(&trace);
        let outer = trace
            .roots
            .iter()
            .find(|r| r.name == "bench_cloog")
            .expect("outer span recorded")
            .duration_ns() as i64;
        assert_eq!(s.total_ns() + s.unmapped_ns, outer);
        let at = |name: &str| s.layer_ns[LAYERS.iter().position(|l| l.0 == name).unwrap()];
        for layer in ["cloog.self_ms", "omega.sat_probe_ms", "omega.sat_exact_ms"] {
            assert!(at(layer) >= 2_000_000, "{layer}: {}", at(layer));
        }
        assert_eq!(s.worker_ns, 0);
    }
}
