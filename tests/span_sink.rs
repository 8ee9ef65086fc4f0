//! The always-on span sink against the span tree. `telemetry::span_hook`
//! times a job's spans per name on its own thread while
//! `telemetry::profile::timed` is armed; `codegend` and `table1` take a
//! report's phases from it instead of recording a trace. These tests pin
//! that it sees exactly the spans a `Collector` records, and that no
//! Table 1 generation nests deeper than the hook's per-thread stack
//! times.

use bench_harness::{generate, statements_of, Tool};
use chill::recipes;
use codegenplus::CodeGen;
use omega::report::is_phase_name;
use omega::trace::Collector;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

/// Both tests reset the process-wide solver cache to run cold; they take
/// turns so one does not warm the other's generation.
fn solver_cache() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn scope_counts_equal_the_trace_for_every_table1_kernel() {
    let _cache = solver_cache();
    omega::trace::install_span_hook(telemetry::span_hook);
    for k in recipes::all(64) {
        let stmts = statements_of(&k);
        omega::reset_sat_cache();
        let c = Collector::new();
        let (_, spans) = telemetry::profile::timed(|| {
            CodeGen::new()
                .statements(stmts)
                .trace(c.clone())
                .generate()
                .unwrap()
        });
        let trace = c.finish();
        let mut want: BTreeMap<&str, u64> = BTreeMap::new();
        trace.walk(&mut |s| *want.entry(s.name).or_default() += 1);
        let got: BTreeMap<&str, u64> = spans.spans.iter().map(|s| (s.name, s.count)).collect();
        assert_eq!(got, want, "{}: per-name span counts", k.name);
        let phases = |m: &BTreeMap<&str, u64>| -> Vec<String> {
            m.keys()
                .filter(|n| is_phase_name(n))
                .map(|n| n.to_string())
                .collect()
        };
        assert!(phases(&got).contains(&"cg_lower".to_owned()), "{got:?}");
        assert_eq!(phases(&got), phases(&want), "{}: phase names", k.name);
        assert_eq!(spans.untimed, 0, "{}: spans nested too deep", k.name);
    }
}

#[test]
fn no_table1_generation_nests_past_the_span_stack() {
    let _cache = solver_cache();
    omega::trace::install_span_hook(telemetry::span_hook);
    for k in recipes::all(64) {
        let stmts = statements_of(&k);
        for tool in [Tool::codegenplus(), Tool::cloog()] {
            for cold in [true, false] {
                if cold {
                    omega::reset_sat_cache();
                }
                let (_, spans) = telemetry::profile::timed(|| generate(&stmts, tool));
                assert!(!spans.spans.is_empty(), "{}: no spans seen", k.name);
                assert_eq!(
                    spans.untimed, 0,
                    "{} {tool:?} (cold: {cold}) nests past the span stack",
                    k.name
                );
            }
        }
    }
}
