#!/usr/bin/env python3
"""Drive a running codegend with a concurrent job load.

Usage: load_driver.py [--port PORT] [--jobs N] [--concurrency C]
                      [--batch-share PCT]

Submits N jobs to the daemon's HTTP port from C concurrent clients:
`POST /v1/gen` for single-space jobs, and `POST /v1/batch` for a share
of them folded into multi-space requests, so the queue sees both
single-space and multi-space entries. Ad-hoc iteration spaces are drawn
from a small rotation of parametric sets, so each job is real solver
work but bounded.

Shed replies (`503`) are an expected answer under load, not a failure:
they are counted and reported, and the exit status reflects only
protocol failures (other statuses, malformed or truncated bodies, socket
errors) and job errors. CI asserts the shed *rate* separately from the
scraped /metrics via check_metrics.py --assert.

The deterministic seed makes a given (jobs, concurrency) configuration
replayable.
"""

import argparse
import collections
import http.client
import json
import random
import sys
import threading
import time

SPACES = (
    "[n] -> { [i] : 0 <= i < n }",
    "[n] -> { [i,j] : 0 <= i < n and 0 <= j < i }",
    "[n] -> { [i,j] : 0 <= i < n and 0 <= j < n and i + j < n }",
    "[n,m] -> { [i,j] : 0 <= i < n and 0 <= j < m }",
)


def job_status(obj):
    """ok/err for one job reply object, bad if it is neither."""
    if isinstance(obj, dict) and "code" in obj:
        return "ok"
    if isinstance(obj, dict) and "error" in obj:
        return "err"
    return "bad"


def post(port, path, body, replies):
    """One request; returns a list of (status, detail) per reply, where
    status is ok/err/busy/bad. A shed answers the whole request once,
    batch or not."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=300)
    try:
        conn.request("POST", path, body=json.dumps(body),
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        text = resp.read().decode()
    finally:
        conn.close()
    if resp.status == 503:
        return [("busy", text)]
    if resp.status != 200:
        return [("bad", f"{path}: HTTP {resp.status}: {text[:200]}")]
    try:
        objs = [json.loads(line) for line in text.splitlines() if line]
    except ValueError as e:
        return [("bad", f"{path}: malformed reply ({e}): {text[:200]}")]
    if path == "/v1/batch":
        # A header object, then one object per space.
        if len(objs) != replies + 1 or objs[0].get("count") != replies:
            return [("bad", f"truncated batch: {text[:200]}")]
        objs = objs[1:]
    elif len(objs) != 1:
        return [("bad", f"expected one reply object: {text[:200]}")]
    return [(job_status(o), str(o)[:200]) for o in objs]


def job_requests(args):
    """The full request list, pre-shuffled: (path, body, replies)."""
    rng = random.Random(args.seed)
    jobs = []
    i = 0
    while i < args.jobs:
        if rng.random() < args.batch_share / 100.0:
            # One batch request carrying several spaces: one queue slot,
            # one reply per space.
            count = rng.randint(2, 6)
            spaces = [rng.choice(SPACES) for _ in range(count)]
            jobs.append(("/v1/batch", {"id": f"ld-{i}", "spaces": spaces}, count))
            i += count
        else:
            body = {"id": f"ld-{i}", "spaces": [rng.choice(SPACES)]}
            jobs.append(("/v1/gen", body, 1))
            i += 1
    rng.shuffle(jobs)
    return jobs


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--port", type=int, default=9077, help="codegend HTTP port")
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

    jobs = job_requests(args)
    cursor = [0]
    lock = threading.Lock()
    tally = collections.Counter()  # status -> replies
    failures = []

    def worker() -> None:
        while True:
            with lock:
                if cursor[0] >= len(jobs):
                    return
                path, body, replies = jobs[cursor[0]]
                cursor[0] += 1
            try:
                results = post(args.port, path, body, replies)
            except (OSError, http.client.HTTPException) as e:
                failures.append(f"{path} {body['id']}: {e!r}")
                return
            with lock:
                for status, detail in results:
                    tally[status] += 1
                    if status == "bad":
                        failures.append(detail)
            if any(status == "bad" for status, _ in results):
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
