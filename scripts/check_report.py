#!/usr/bin/env python3
"""Validate QueryReport wide events against the shared schema.

One schema, three producers: the codegend request log (JSONL lines with
`"event": "report"`), the daemon's `GET /debug/requests` (a JSON array),
and `table1 --json` (each row embeds a `report` object). This checker
accepts any of the three shapes, auto-detected, and validates every
report it finds: exactly the required fields (plus the optional
`retained`/`error`) with the right types, so a retired field cannot come
back unnoticed, the full
`omega::stats` counter vocabulary (no missing or unknown counters), and
the derived `exact_solves` consistent with the counters it is derived
from. Run with `--self-test` to prove the checker rejects the broken
shapes it exists to catch before trusting a pass verdict.
"""

import argparse
import json
import sys

# The omega::stats counter vocabulary (crates/omega/src/stats.rs), which
# QueryReport.counters, omega-replay --stats, and the /metrics bridge all
# share. Keep in lockstep with define_counters!.
COUNTER_FIELDS = (
    "tier0_unsat",
    "tier1_unsat",
    "tier1_sat",
    "cache_hits",
    "cache_misses",
    "evictions",
    "gist_hits",
    "gist_misses",
    "sat_degraded",
    "gist_degraded",
    "degrade_overflow",
    "degrade_budget",
    "degrade_depth",
    "degrade_rowcap",
    "degrade_deadline",
    "par_batches",
    "par_tasks",
    "par_steals",
)

REQUIRED = {
    "event": str,
    "id": str,
    "kind": str,
    "source": str,
    "status": str,
    "queue_ns": int,
    "ts_ms": int,
    "effort": int,
    "lines": int,
    "bytes": int,
    "codegen_ns": int,
    "compile_ns": int,
    "request_ns": int,
    "certainty": str,
    "phases": dict,
    "counters": dict,
    "exact_solves": int,
    "slow": bool,
}

# Rendered only when present (QueryReport omits them rather than null).
OPTIONAL = {"retained", "error"}


def check_report(r):
    """Raises AssertionError when `r` is not a valid QueryReport."""
    for key, ty in REQUIRED.items():
        if key not in r:
            raise AssertionError(f"missing field {key!r}: {r}")
        ok = isinstance(r[key], bool) if ty is bool else (
            isinstance(r[key], ty) and not isinstance(r[key], bool)
        )
        if not ok:
            raise AssertionError(f"field {key!r} is not {ty.__name__}: {r[key]!r}")
    unknown = set(r) - set(REQUIRED) - OPTIONAL
    if unknown:
        raise AssertionError(f"unknown field(s) {sorted(unknown)}: {r}")
    if r["event"] != "report":
        raise AssertionError(f"not a report event: {r['event']!r}")
    if r["kind"] not in ("kernel", "adhoc", "batch"):
        raise AssertionError(f"unknown kind {r['kind']!r}")
    if r["status"] not in ("ok", "err"):
        raise AssertionError(f"unknown status {r['status']!r}")
    if r["queue_ns"] < 0:
        raise AssertionError(f"negative queue_ns: {r['queue_ns']!r}")
    if r["status"] == "err" and not isinstance(r.get("error"), str):
        raise AssertionError(f"err report without error message: {r}")
    if r["status"] == "ok":
        if r["certainty"] != "exact" and not r["certainty"].startswith("approximate:"):
            raise AssertionError(f"unknown certainty {r['certainty']!r}")
        if r["lines"] <= 0 or r["bytes"] <= 0:
            raise AssertionError(f"ok report without generated code: {r}")
    got = set(r["counters"])
    want = set(COUNTER_FIELDS)
    if got != want:
        raise AssertionError(
            f"counter vocabulary mismatch: missing {sorted(want - got)}, unknown {sorted(got - want)}"
        )
    for name, v in r["counters"].items():
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise AssertionError(f"counter {name!r} is not a non-negative int: {v!r}")
    for name, ns in r["phases"].items():
        if not isinstance(ns, int) or isinstance(ns, bool) or ns < 0:
            raise AssertionError(f"phase {name!r} is not non-negative ns: {ns!r}")
    c = r["counters"]
    cheap = c["tier0_unsat"] + c["tier1_unsat"] + c["tier1_sat"]
    derived = max(0, c["cache_misses"] - cheap)
    if r["exact_solves"] != derived:
        raise AssertionError(
            f"exact_solves {r['exact_solves']} != derived {derived} from counters"
        )
    if "retained" in r and not isinstance(r["retained"], str):
        raise AssertionError(f"retained is not a path string: {r['retained']!r}")
    if r["slow"] is False and "retained" in r:
        raise AssertionError(f"fast job with retained artifacts: {r}")


def extract(text):
    """Returns the list of reports found in any of the three shapes."""
    stripped = text.lstrip()
    if stripped.startswith("["):
        return json.loads(text)  # /debug/requests array
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            doc = None  # several objects: treat as a JSONL log below
        if isinstance(doc, dict):
            if "rows" in doc:  # table1 --json snapshot
                return [row["report"] for row in doc["rows"] if "report" in row]
            if doc.get("event") == "report":
                return [doc]
    reports = []
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if obj.get("event") == "report":
            reports.append(obj)
    return reports


def sample():
    counters = {name: 0 for name in COUNTER_FIELDS}
    counters["cache_misses"] = 7
    counters["tier0_unsat"] = 1
    counters["tier1_sat"] = 2
    return {
        "event": "report",
        "id": "r-000001",
        "kind": "kernel",
        "source": "gemm",
        "status": "ok",
        "queue_ns": 700,
        "ts_ms": 1,
        "effort": 1,
        "lines": 12,
        "bytes": 240,
        "codegen_ns": 1000,
        "compile_ns": 2000,
        "request_ns": 4000,
        "certainty": "exact",
        "phases": {"cg_generate": 900},
        "counters": counters,
        "exact_solves": 4,
        "slow": False,
    }


def self_test():
    check_report(sample())

    def mutate(**kv):
        r = sample()
        for k, v in kv.items():
            if v is None:
                r.pop(k, None)
            else:
                r[k] = v
        return r

    bad_counters_extra = sample()
    bad_counters_extra["counters"]["not_a_counter"] = 1
    bad_counters_missing = sample()
    del bad_counters_missing["counters"]["par_steals"]
    bad = [
        mutate(id=None),  # missing required field
        mutate(status="maybe"),  # unknown status
        mutate(queue_ns=-1),  # negative queue wait
        mutate(queue_ns=None),  # missing queue wait
        mutate(status="err"),  # err without error message
        mutate(certainty="sure"),  # unknown certainty
        mutate(lines=0),  # ok without code
        mutate(exact_solves=99),  # derived field inconsistent
        mutate(slow=False, retained="somewhere"),  # fast job kept artifacts
        mutate(ts_ms="yesterday"),  # wrong type
        mutate(dynamic_cost=42),  # retired field
        mutate(event="request"),  # not a report
        bad_counters_extra,
        bad_counters_missing,
    ]
    for r in bad:
        try:
            check_report(r)
        except AssertionError:
            continue
        sys.exit(f"self-test: accepted invalid report {r}")
    # All three container shapes round-trip through extract().
    as_log = json.dumps(sample())
    as_array = json.dumps([sample(), sample()])
    as_table1 = json.dumps({"version": 2, "rows": [{"kernel": "gemm", "report": sample()}]})
    assert len(extract(as_log)) == 1
    assert len(extract(as_array)) == 2
    assert len(extract(as_table1)) == 1
    print("self-test ok: all malformed reports rejected, all shapes extracted")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("file", nargs="?", help="JSONL log, /debug/requests array, or table1 --json snapshot")
    ap.add_argument("--min", type=int, default=1, help="minimum number of reports expected")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        self_test()
        return
    if not args.file:
        ap.error("a file (or --self-test) is required")
    with open(args.file) as f:
        reports = extract(f.read())
    if len(reports) < args.min:
        sys.exit(f"expected at least {args.min} report(s), found {len(reports)}")
    for r in reports:
        check_report(r)
    print(f"ok: {len(reports)} valid report(s)")


if __name__ == "__main__":
    main()
