//! Fault-armed persistence (`--features faults`): every injectable
//! disruption of the persistent cache's read and write paths
//! ([`omega::faults::PersistFault`]) must land on the structured
//! degradation the robustness contract promises — a truncated recovery
//! or a disabled write path — never a panic and never a wrong verdict.
//!
//! Kept in its own binary: the armed persist fault is process-global and
//! one-shot, so these tests serialize behind one mutex and must not share
//! a process with other code that drives the persistence hooks.

#![cfg(feature = "faults")]

use omega::faults::{clear_persist, inject_persist, PersistFault};
use omega::persist::{PersistError, Store, LOG_FILE};
use std::path::PathBuf;
use std::sync::Mutex;

static ARMED: Mutex<()> = Mutex::new(());

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("omega-persist-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A one-record log: 28 header bytes plus one 30-byte sat record.
fn seeded_store(tag: &str) -> PathBuf {
    let dir = tmpdir(tag);
    let s = Store::open(&dir).unwrap();
    s.record_sat((1, 1), true);
    assert!(s.flush() > 0);
    dir
}

#[test]
fn io_fault_on_open_scan_degrades_to_local_caching() {
    let _g = ARMED.lock().unwrap_or_else(|e| e.into_inner());
    clear_persist();
    let dir = seeded_store("open-io");
    // Op 1 is the header read, op 2 the body read; both paths must
    // surface as PersistError::Io, leaving the log untouched.
    for op in [1, 2] {
        inject_persist(op, PersistFault::Io);
        match Store::open(&dir) {
            Err(PersistError::Io(_)) => {}
            Err(other) => panic!("op {op}: expected Io, got {other:?}"),
            Ok(_) => panic!("op {op}: expected Io, got a working store"),
        }
        clear_persist();
    }
    // With the harness disarmed the same log opens clean.
    let s = Store::open(&dir).unwrap();
    assert_eq!(s.open_summary().sat_records, 1);
    assert_eq!(s.open_summary().truncated_bytes, 0);
    drop(s);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn io_fault_on_flush_disables_writes_but_warm_keeps_serving() {
    let _g = ARMED.lock().unwrap_or_else(|e| e.into_inner());
    clear_persist();
    let dir = seeded_store("flush-io");
    let before = omega::stats::snapshot();
    let s = Store::open(&dir).unwrap();
    s.record_sat((2, 2), false);
    inject_persist(1, PersistFault::Io);
    assert_eq!(s.flush(), 0, "failed append must report zero bytes");
    clear_persist();
    assert!(s.write_disabled());
    // The warm tier is unaffected by the dead write path.
    assert_eq!(s.lookup_sat((1, 1)), Some(true));
    // Nothing further is even queued.
    s.record_sat((3, 3), true);
    assert_eq!(s.pending_bytes(), 0);
    assert_eq!(s.flush(), 0);
    assert!(
        omega::stats::snapshot().delta(&before).persist_degrade_io >= 1,
        "the injected flush failure must count a persist_degrade_io"
    );
    drop(s);
    // The log never saw the failed batch: a clean reopen has exactly the
    // pre-fault record.
    let s = Store::open(&dir).unwrap();
    assert_eq!(s.open_summary().sat_records, 1);
    assert_eq!(s.open_summary().truncated_bytes, 0);
    assert_eq!(s.lookup_sat((2, 2)), None);
    drop(s);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn short_write_tears_the_tail_and_reopen_recovers() {
    let _g = ARMED.lock().unwrap_or_else(|e| e.into_inner());
    clear_persist();
    let dir = seeded_store("short-write");
    let log = dir.join(LOG_FILE);
    let intact = std::fs::metadata(&log).unwrap().len();
    let s = Store::open(&dir).unwrap();
    s.record_sat((2, 2), false);
    inject_persist(1, PersistFault::ShortWrite);
    assert_eq!(s.flush(), 0);
    clear_persist();
    assert!(s.write_disabled());
    drop(s);
    // Half of the 30-byte record landed — the moral SIGKILL mid-append.
    assert_eq!(std::fs::metadata(&log).unwrap().len(), intact + 15);
    let s = Store::open(&dir).unwrap();
    let sum = s.open_summary();
    assert_eq!(sum.sat_records, 1, "everything before the tear survives");
    assert_eq!(sum.truncated_bytes, 15, "the torn tail is dropped");
    assert_eq!(
        std::fs::metadata(&log).unwrap().len(),
        intact,
        "recovery trims the log back to its last intact record"
    );
    assert_eq!(s.lookup_sat((1, 1)), Some(true));
    assert_eq!(s.lookup_sat((2, 2)), None);
    // The recovered store is fully writable again.
    s.record_sat((3, 3), true);
    assert!(s.flush() > 0);
    drop(s);
    let s = Store::open(&dir).unwrap();
    assert_eq!(s.open_summary().sat_records, 2);
    drop(s);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bitflip_on_scan_truncates_at_the_corrupt_record() {
    let _g = ARMED.lock().unwrap_or_else(|e| e.into_inner());
    clear_persist();
    let dir = tmpdir("scan-bitflip");
    {
        let s = Store::open(&dir).unwrap();
        s.record_sat((1, 1), true);
        s.record_sat((2, 2), true);
        s.record_sat((3, 3), true);
        assert!(s.flush() > 0);
    }
    let before = omega::stats::snapshot();
    // Open-path ops: 1 = header read, 2 = body read, 3.. = one per
    // record parse. Aim the flip at the second record's parse.
    inject_persist(4, PersistFault::BitFlip);
    let s = Store::open(&dir).unwrap();
    clear_persist();
    let sum = s.open_summary();
    assert_eq!(sum.sat_records, 1, "only the records before the flip load");
    assert_eq!(sum.truncated_bytes, 60, "records 2 and 3 are cut");
    assert_eq!(s.lookup_sat((1, 1)), Some(true));
    assert_eq!(s.lookup_sat((2, 2)), None);
    {
        let d = omega::stats::snapshot().delta(&before);
        assert!(d.persist_degrade_checksum >= 1);
        assert!(d.persist_truncations >= 1);
    }
    drop(s);
    let s = Store::open(&dir).unwrap();
    assert_eq!(s.open_summary().truncated_bytes, 0, "recovery is sticky");
    drop(s);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unsupported_shot_is_spent_without_effect() {
    let _g = ARMED.lock().unwrap_or_else(|e| e.into_inner());
    clear_persist();
    let dir = tmpdir("spent-shot");
    let s = Store::open(&dir).unwrap();
    s.record_sat((1, 1), true);
    // A BitFlip landing on an append has nothing to flip: the shot is
    // consumed, the append goes through untouched.
    inject_persist(1, PersistFault::BitFlip);
    assert!(s.flush() > 0);
    assert!(!s.write_disabled());
    drop(s);
    // Harness already disarmed — this open must be clean.
    let s = Store::open(&dir).unwrap();
    assert_eq!(s.open_summary().sat_records, 1);
    assert_eq!(s.open_summary().truncated_bytes, 0);
    drop(s);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn persist_fault_tags_round_trip() {
    for (tag, fault) in [
        ("persist-io", PersistFault::Io),
        ("persist-short-write", PersistFault::ShortWrite),
        ("persist-bitflip", PersistFault::BitFlip),
    ] {
        assert_eq!(PersistFault::from_tag(tag), Some(fault));
    }
    assert_eq!(PersistFault::from_tag("bogus"), None);
    assert_eq!(PersistFault::ALL.len(), 3);
}
