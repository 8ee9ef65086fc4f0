//! Fault-armed end-to-end generation (`--features faults`): with every
//! failure mode forced at the first exact-solver operation, `CodeGen`
//! never panics — it either finishes (with the degradation on the
//! certificate and the exact statement trace) or returns a structured
//! error — and the outcome is byte-identical across cache states.
//!
//! Kept in its own binary: the armed fault is process-global, so these
//! tests must not share a process with non-faulted generation tests.

#![cfg(feature = "faults")]

use std::sync::Mutex;

use bench_harness::statements_of;
use chill::recipes;
use codegenplus::{CodeGen, Statement};
use omega::faults::{self, Fault};
use omega::Certainty;

static ARMED: Mutex<()> = Mutex::new(());

/// The full observable outcome of a generation run: emitted code and
/// certificate on success, the structured error's message on failure.
fn emit(stmts: &[Statement]) -> Result<(String, Certainty), String> {
    CodeGen::new()
        .statements(stmts.to_vec())
        .generate()
        .map(|g| (g.to_c(), g.certainty))
        .map_err(|e| e.to_string())
}

/// Each fault variant, forced at the first counted operation of every
/// exact-solver query, on every Table 1 kernel: generation never panics,
/// the outcome is identical on cold, warm and reset caches,
/// and successful runs execute the exact statement trace.
#[test]
fn fault_armed_generation_is_deterministic_and_sound() {
    let _g = ARMED.lock().unwrap_or_else(|e| e.into_inner());
    for fault in Fault::ALL {
        let mut fired = false;
        for k in recipes::all(8) {
            let stmts = statements_of(&k);

            faults::clear();
            omega::reset_sat_cache();
            let reference = CodeGen::new().statements(stmts.clone()).generate().unwrap();
            let exact_trace = polyir::execute(&reference.code, &k.params)
                .expect("reference code executes")
                .trace;

            omega::reset_sat_cache();
            faults::inject_after(1, fault);
            let cold = emit(&stmts);
            let warm = emit(&stmts);
            assert_eq!(
                cold, warm,
                "{} differs cold vs warm cache under {fault:?}",
                k.name
            );
            omega::reset_sat_cache();
            assert_eq!(
                cold,
                emit(&stmts),
                "{} differs across cache resets under {fault:?}",
                k.name
            );

            match &cold {
                Ok((_, certainty)) => {
                    if *certainty != Certainty::Exact {
                        fired = true;
                        assert!(
                            certainty.reasons().contains(fault.error()),
                            "{}: certificate {certainty} must name {fault:?}",
                            k.name
                        );
                    }
                    omega::reset_sat_cache();
                    let g = CodeGen::new().statements(stmts.clone()).generate().unwrap();
                    faults::clear();
                    let run = polyir::execute(&g.code, &k.params).expect("faulted code executes");
                    assert_eq!(
                        run.trace, exact_trace,
                        "{}: fault {fault:?} changed the executed instances",
                        k.name
                    );
                }
                Err(_) => {
                    // A structured error is a graceful outcome too: the
                    // degraded solver answers starved the generator of
                    // usable bounds. It must be deterministic (asserted
                    // above) — and it proves the fault fired.
                    fired = true;
                }
            }
            faults::clear();
        }
        assert!(
            fired,
            "{fault:?} never influenced any kernel — harness is inert"
        );
    }
    faults::clear();
}
