//! The always-on span sink against the span tree. `telemetry::span_hook`
//! times a job's spans per name on its own thread while
//! `telemetry::profile::timed` is armed; `codegend` and `table1` take a
//! report's phases and the hot-spot table from it instead of recording a
//! trace. These tests pin that it sees exactly the spans a `Collector`
//! records, that its self times add up to the generation's wall time,
//! and that no Table 1 generation nests deeper than the hook's
//! per-thread stack times.

use bench_harness::{generate, statements_of, Tool};
use chill::recipes;
use codegenplus::CodeGen;
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
        assert!(got.contains_key("cg_lower"), "{got:?}");
        assert_eq!(spans.untimed, 0, "{}: spans nested too deep", k.name);
        // Every span in the scope lies inside the one generation span, so
        // the self times of all names add up to its wall time exactly.
        let generate = spans.spans.iter().find(|s| s.name == "cg_generate");
        let self_total: u64 = spans.spans.iter().map(|s| s.self_ns).sum();
        assert_eq!(
            Some(self_total),
            generate.map(|s| s.ns),
            "{}: self times against cg_generate",
            k.name
        );
    }
}

#[test]
fn a_detached_query_leaves_its_askers_self_time() {
    omega::trace::install_span_hook(telemetry::span_hook);
    let pause = std::time::Duration::from_millis(1);
    let ((), spans) = telemetry::profile::timed(|| {
        let _probe = omega::span!(sat_query);
        std::thread::sleep(2 * pause);
        // Detached, like the solver's exact queries: a root of the
        // collector's trace, an ordinary nested span to the hook.
        let _exact = omega::root_span!(sat_exact);
        std::thread::sleep(4 * pause);
        let _fm = omega::span!(fm_eliminate);
        std::thread::sleep(pause);
    });
    let get = |name| *spans.spans.iter().find(|s| s.name == name).expect(name);
    let (probe, exact, fm) = (get("sat_query"), get("sat_exact"), get("fm_eliminate"));
    assert_eq!(probe.self_ns, probe.ns - exact.ns, "{spans:?}");
    assert_eq!(exact.self_ns, exact.ns - fm.ns, "{spans:?}");
    assert_eq!(fm.self_ns, fm.ns, "{spans:?}");
    assert!(probe.self_ns >= 2 * pause.as_nanos() as u64, "{spans:?}");
    // Nothing counted twice: the self times sum to the probe's wall time.
    let total: u64 = spans.spans.iter().map(|s| s.self_ns).sum();
    assert_eq!(total, probe.ns, "{spans:?}");
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
