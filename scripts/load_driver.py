#!/usr/bin/env python3
"""Drive a running codegend with a concurrent job load.

Usage: load_driver.py [--port PORT] [--jobs N] [--concurrency C]
                      [--batch-share PCT]

Submits N line-protocol jobs from C concurrent connections, folding a
share of them into multi-space `batch` requests so the queue sees both
single-space and multi-space entries. Ad-hoc iteration spaces are drawn
from a small rotation of parametric sets, so each job is real solver
work but bounded.

Shed replies (`busy ...`) are an expected answer under load, not a
failure: they are counted and reported, and the exit status reflects
only protocol failures (malformed replies, truncated bodies, socket
errors) and `err` replies. CI asserts the shed *rate* separately from
the scraped /metrics via check_metrics.py --assert.

The deterministic seed makes a given (jobs, concurrency) configuration
replayable.
"""

import argparse
import collections
import random
import socket
import sys
import threading
import time

SPACES = (
    "[n] -> { [i] : 0 <= i < n }",
    "[n] -> { [i,j] : 0 <= i < n and 0 <= j < i }",
    "[n] -> { [i,j] : 0 <= i < n and 0 <= j < n and i + j < n }",
    "[n,m] -> { [i,j] : 0 <= i < n and 0 <= j < m }",
)


def read_reply(f):
    """One reply: the header line plus, for `ok`, the byte-counted body.
    Returns (status, header) where status is ok/err/busy/batch/bad."""
    header = f.readline().decode().strip()
    if not header:
        return "bad", "empty reply (connection closed?)"
    fields = dict(t.split("=", 1) for t in header.split()[1:] if "=" in t)
    if header.startswith("ok "):
        body = f.read(int(fields["bytes"]))
        if len(body) != int(fields["bytes"]):
            return "bad", f"truncated body: {header}"
        return "ok", header
    if header.startswith("busy "):
        return "busy", header
    if header.startswith("err "):
        return "err", header
    if header.startswith("batch "):
        return "batch", header
    return "bad", f"unrecognized reply: {header}"


def job_lines(args):
    """The full job list, pre-shuffled: (line, replies)."""
    rng = random.Random(args.seed)
    jobs = []
    i = 0
    while i < args.jobs:
        if rng.random() < args.batch_share / 100.0:
            # One batch request carrying several spaces: one queue slot,
            # one reply per space.
            count = rng.randint(2, 6)
            spaces = " ; ".join(rng.choice(SPACES) for _ in range(count))
            jobs.append((f"batch id=ld-{i} space={spaces}", count))
            i += count
        else:
            jobs.append((f"gen id=ld-{i} space={rng.choice(SPACES)}", 1))
            i += 1
    rng.shuffle(jobs)
    return jobs


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--port", type=int, default=7077)
    ap.add_argument("--jobs", type=int, default=2000, help="total job count")
    ap.add_argument("--concurrency", type=int, default=64)
    ap.add_argument(
        "--batch-share",
        type=float,
        default=15.0,
        help="%% of requests sent as multi-space batch requests",
    )
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    jobs = job_lines(args)
    cursor = [0]
    lock = threading.Lock()
    tally = collections.Counter()  # status -> replies
    failures = []

    def worker() -> None:
        try:
            s = socket.create_connection(("127.0.0.1", args.port), timeout=300)
            f = s.makefile("rb")
        except OSError as e:
            failures.append(f"connect: {e!r}")
            return
        while True:
            with lock:
                if cursor[0] >= len(jobs):
                    return
                line, replies = jobs[cursor[0]]
                cursor[0] += 1
            try:
                s.sendall((line + "\n").encode())
                status, header = read_reply(f)
                # A batch acknowledgment precedes its per-space replies;
                # one shed reply answers the whole request, batch or not.
                if status == "batch":
                    for _ in range(replies):
                        status, header = read_reply(f)
                        with lock:
                            tally[status] += 1
                else:
                    with lock:
                        tally[status] += 1
                if status == "bad":
                    failures.append(header)
                    return
            except OSError as e:
                failures.append(f"{line.split(' space=')[0]}: {e!r}")
                return

    start = time.monotonic()
    threads = [threading.Thread(target=worker) for _ in range(args.concurrency)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.monotonic() - start

    total = sum(tally.values())
    print(f"{total} replies in {elapsed:.2f}s ({total / max(elapsed, 1e-9):.0f}/s)")
    print(
        f"  ok={tally['ok']} err={tally['err']} "
        f"shed={tally['busy']} bad={tally['bad']}"
    )
    errs = tally["err"] + tally["bad"]
    if failures or errs:
        for msg in failures[:20]:
            print(f"failure: {msg}", file=sys.stderr)
        sys.exit(f"{errs} bad replies, {len(failures)} connection failures")
    if tally["ok"] == 0:
        sys.exit("no job completed — the load never ran?")


if __name__ == "__main__":
    main()
