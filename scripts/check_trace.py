#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON file.

Accepts traces from `table1 --trace` and the `trace.json` codegend
retains for a tail-sampled job (`--slow-ms`, under
`<slow-dir>/<request-id>/`); both come from the same exporter. Checks
that the file is well-formed JSON and that the duration events are
balanced: every `E` closes the
innermost open `B` of the same thread, and no thread ends with an open
span. Instant events (`ph: "i"`) are allowed and do not affect balance.
Run with `--self-test` to verify the checker itself rejects the
malformed shapes it exists to catch (CI does this before trusting a
pass verdict).
"""

import argparse
import json
import sys


def check(events):
    """Returns the event count; raises AssertionError on a malformed trace."""
    stacks = {}
    for e in events:
        if e["ph"] == "i":  # instant event: no stack discipline to keep
            continue
        if e["ph"] not in ("B", "E"):
            raise AssertionError(f"unexpected phase: {e}")
        s = stacks.setdefault(e["tid"], [])
        if e["ph"] == "B":
            s.append(e["name"])
        else:
            if not s or s[-1] != e["name"]:
                raise AssertionError(f"unbalanced E: {e}")
            s.pop()
    still_open = {tid: s for tid, s in stacks.items() if s}
    if still_open:
        raise AssertionError(f"unclosed B events: {still_open}")
    return len(events)


def self_test():
    good = [
        {"ph": "B", "tid": 1, "name": "a"},
        {"ph": "B", "tid": 2, "name": "c"},
        {"ph": "i", "tid": 2, "name": "tick"},
        {"ph": "B", "tid": 1, "name": "b"},
        {"ph": "E", "tid": 1, "name": "b"},
        {"ph": "E", "tid": 2, "name": "c"},
        {"ph": "E", "tid": 1, "name": "a"},
    ]
    assert check(good) == 7
    bad_traces = [
        [{"ph": "B", "tid": 1, "name": "a"}],  # unclosed span
        [{"ph": "E", "tid": 1, "name": "a"}],  # E without B
        [  # E closes the wrong span
            {"ph": "B", "tid": 1, "name": "a"},
            {"ph": "E", "tid": 1, "name": "b"},
        ],
        [  # cross-thread close
            {"ph": "B", "tid": 1, "name": "a"},
            {"ph": "E", "tid": 2, "name": "a"},
        ],
        [{"ph": "X", "tid": 1, "name": "a"}],  # unknown phase
    ]
    for bad in bad_traces:
        try:
            check(bad)
        except AssertionError:
            continue
        sys.exit(f"self-test: accepted invalid trace {bad}")
    print("self-test ok: all malformed shapes rejected")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace", nargs="?", help="Chrome trace-event JSON file")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        self_test()
        return
    if not args.trace:
        ap.error("a trace file (or --self-test) is required")
    with open(args.trace) as f:
        events = json.load(f)
    n = check(events)
    print(f"ok: {n} balanced events")


if __name__ == "__main__":
    main()
