#!/usr/bin/env python3
"""Validate an OpenMetrics/Prometheus text exposition (e.g. a `codegend`
`/metrics` scrape) for structural correctness.

Checks, per metric family:

* `# HELP` / `# TYPE` metadata appears before any sample of the family,
  at most once each, with a known type;
* counter samples use the `_total` suffix (and gauges never do);
* histogram families expose `_bucket` series with `le` labels that are
  parseable, strictly increasing, and cumulative (counts monotonically
  non-decreasing), end in a `+Inf` bucket, and agree with `_count`;
  `_sum` and `_count` are present per label set;
* sample values parse as numbers, label strings are well-formed, and no
  sample line appears for an undeclared family when `--strict` is given;
* the exposition ends with the OpenMetrics `# EOF` terminator.

Beyond structural validation, the checker evaluates threshold
assertions against the scrape (`--assert EXPR`, repeatable) and renders
a one-row queue summary as GitHub-flavored markdown (`--summary`, for
`$GITHUB_STEP_SUMMARY`). Assertion expressions are comparisons over
metric selectors with arithmetic:

    p99(codegend_queue_wait_seconds) <= 0.25
    codegend_jobs_shed_total / codegend_requests_total < 0.05
    sum(codegend_requests_total{status="ok"}) >= 2000

A bare selector sums every matching sample (labels are subset-matched);
`pNN(family{...})` reads the family's cumulative `le` buckets and
returns the smallest edge covering the NN-th percentile; `count()` and
`avg()` count and average matching samples. A selector matching nothing
is an error, not zero — a typo must not pass a gate. Likewise a
quantile over a histogram with zero observations is an error — "p99=0
because nothing ran" would pass any latency gate vacuously; pass
`--allow-empty` to treat empty histograms as 0.0 when a gate must
tolerate idle scrapes.

Usage:
    check_metrics.py FILE        validate a scrape saved to FILE ('-' = stdin)
    check_metrics.py FILE --assert EXPR [--assert EXPR ...]
    check_metrics.py FILE --summary
    check_metrics.py --self-test run the embedded good/bad corpus

Exit status: 0 valid, 1 validation or assertion errors, 2 usage error.
"""

import argparse
import math
import re
import sys

NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
# name{labels} value  — labels optional; value is the rest of the line.
SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)
LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
KNOWN_TYPES = {"counter", "gauge", "histogram", "summary", "untyped", "info"}


def base_family(name):
    """Strips sample-series suffixes down to the declared family name."""
    for suffix in ("_bucket", "_count", "_sum", "_total"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def parse_le(raw):
    if raw == "+Inf":
        return math.inf
    try:
        return float(raw)
    except ValueError:
        return None


def check_text(text, strict=False):
    """Returns a list of error strings; empty means the scrape is valid."""
    errors = []
    types = {}  # family -> declared type
    helps = set()
    samples_seen = set()  # families that have emitted a sample
    # histogram accounting: (family, frozen labels minus le) -> state
    buckets = {}
    counts = {}
    sums = {}
    lines = text.split("\n")
    if text and not text.endswith("\n"):
        errors.append("exposition does not end with a newline")
    saw_eof = False
    for ln, line in enumerate(lines, 1):
        if not line:
            continue
        if saw_eof:
            errors.append(f"line {ln}: content after # EOF")
            break
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] == "EOF":
                saw_eof = True
                continue
            if len(parts) >= 3 and parts[1] in ("HELP", "TYPE"):
                family = parts[2]
                if not NAME_RE.fullmatch(family):
                    errors.append(f"line {ln}: bad metric name {family!r}")
                    continue
                if family in samples_seen:
                    errors.append(
                        f"line {ln}: {parts[1]} for {family} after its samples"
                    )
                if parts[1] == "HELP":
                    if family in helps:
                        errors.append(f"line {ln}: duplicate HELP for {family}")
                    helps.add(family)
                else:
                    if family in types:
                        errors.append(f"line {ln}: duplicate TYPE for {family}")
                    mtype = parts[3].strip() if len(parts) > 3 else ""
                    if mtype not in KNOWN_TYPES:
                        errors.append(f"line {ln}: unknown type {mtype!r}")
                    types[family] = mtype
            # other comments are legal and ignored
            continue
        m = SAMPLE_RE.match(line)
        if not m:
            errors.append(f"line {ln}: unparseable sample line {line!r}")
            continue
        name = m.group("name")
        labels = dict(LABEL_RE.findall(m.group("labels") or ""))
        try:
            value = float(m.group("value"))
        except ValueError:
            errors.append(f"line {ln}: bad sample value {m.group('value')!r}")
            continue
        family = base_family(name)
        if family not in types and name in types:
            family = name  # e.g. a gauge whose name ends in _count
        mtype = types.get(family)
        if mtype is None:
            if strict:
                errors.append(f"line {ln}: sample for undeclared family {name}")
            samples_seen.add(family)
            continue
        samples_seen.add(family)
        if mtype == "counter":
            if not name.endswith("_total"):
                errors.append(
                    f"line {ln}: counter sample {name} must end in _total"
                )
            if value < 0:
                errors.append(f"line {ln}: negative counter {name} = {value}")
        elif mtype == "gauge":
            if name != family:
                errors.append(f"line {ln}: gauge sample {name} has a suffix")
        elif mtype == "histogram":
            key = (family, tuple(sorted((k, v) for k, v in labels.items() if k != "le")))
            if name.endswith("_bucket"):
                if "le" not in labels:
                    errors.append(f"line {ln}: {name} bucket without le label")
                    continue
                le = parse_le(labels["le"])
                if le is None:
                    errors.append(f"line {ln}: bad le value {labels['le']!r}")
                    continue
                buckets.setdefault(key, []).append((le, value, ln))
            elif name.endswith("_count"):
                counts[key] = (value, ln)
            elif name.endswith("_sum"):
                sums[key] = (value, ln)
            else:
                errors.append(f"line {ln}: unexpected histogram sample {name}")
    if not saw_eof:
        errors.append("missing # EOF terminator")

    for key, series in sorted(buckets.items()):
        family, labels = key
        where = f"{family}{dict(labels) if labels else ''}"
        les = [le for le, _, _ in series]
        if les != sorted(les) or len(set(les)) != len(les):
            errors.append(f"{where}: le edges not strictly increasing: {les}")
        vals = [v for _, v, _ in series]
        if any(b > a for a, b in zip(vals[1:], vals)):
            errors.append(f"{where}: bucket counts not cumulative: {vals}")
        if not series or series[-1][0] != math.inf:
            errors.append(f"{where}: missing le=\"+Inf\" bucket")
        if key not in counts:
            errors.append(f"{where}: missing _count")
        elif series and series[-1][0] == math.inf and series[-1][1] != counts[key][0]:
            errors.append(
                f"{where}: +Inf bucket {series[-1][1]} != _count {counts[key][0]}"
            )
        if key not in sums:
            errors.append(f"{where}: missing _sum")
    for key in sorted(set(counts) | set(sums)):
        if key not in buckets:
            family, labels = key
            errors.append(f"{family}{dict(labels) if labels else ''}: _count/_sum without buckets")
    return errors


# ---------------------------------------------------------------------------
# Assertion expressions
# ---------------------------------------------------------------------------


class EvalError(Exception):
    """An assertion expression that cannot be evaluated (syntax error,
    selector matching nothing, quantile of a non-histogram)."""


def parse_samples(text):
    """Returns the scrape as a flat list of (name, labels, value)."""
    samples = []
    for line in text.split("\n"):
        if not line or line.startswith("#"):
            continue
        m = SAMPLE_RE.match(line)
        if not m:
            continue
        try:
            value = float(m.group("value"))
        except ValueError:
            continue
        labels = dict(LABEL_RE.findall(m.group("labels") or ""))
        samples.append((m.group("name"), labels, value))
    return samples


SELECTOR_RE = re.compile(
    r"(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(?P<labels>[^}]*)\})?$"
)


def split_selector(sel):
    m = SELECTOR_RE.match(sel)
    if not m:
        raise EvalError(f"bad selector {sel!r}")
    return m.group("name"), dict(LABEL_RE.findall(m.group("labels") or ""))


def select(samples, sel, suffix=""):
    """Samples whose name is `selector name + suffix` and whose labels are
    a superset of the selector's."""
    name, want = split_selector(sel)
    name += suffix
    return [
        (n, ls, v)
        for n, ls, v in samples
        if n == name and all(ls.get(k) == v for k, v in want.items())
    ]


def quantile(samples, sel, q, allow_empty=False):
    """The q-quantile of a histogram family: merges the cumulative `le`
    buckets of every matching series and returns the smallest edge whose
    count covers q of the total. A histogram with zero observations is
    an error unless `allow_empty` (a vacuous p99=0 must not pass a
    latency gate); a quantile past the last finite edge is +Inf (which
    fails any `<=` gate — honest, not forgiving)."""
    by_le = {}
    for _, ls, v in select(samples, sel, "_bucket"):
        le = parse_le(ls.get("le", ""))
        if le is None:
            raise EvalError(f"bad le bucket in {sel!r}")
        by_le[le] = by_le.get(le, 0.0) + v
    if math.inf not in by_le:
        raise EvalError(f"{sel!r} has no +Inf bucket (not a histogram?)")
    total = by_le[math.inf]
    if total == 0:
        if allow_empty:
            return 0.0
        raise EvalError(
            f"{sel!r} histogram has no observations — a quantile over "
            "nothing proves nothing (pass --allow-empty to read it as 0)"
        )
    rank = q * total
    for le in sorted(by_le):
        if by_le[le] >= rank - 1e-9:
            return le
    return math.inf


TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<op><=|>=|==|!=|<|>|[()+\-*/])"
    r"|(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<sel>[a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[^}]*\})?)"
    r")"
)


def tokenize(expr):
    tokens, i = [], 0
    while i < len(expr):
        m = TOKEN_RE.match(expr, i)
        if not m or m.end() == i:
            if expr[i:].strip():
                raise EvalError(f"unparseable at {expr[i:]!r}")
            break
        i = m.end()
        if m.group("op"):
            tokens.append(("op", m.group("op")))
        elif m.group("num"):
            tokens.append(("num", float(m.group("num"))))
        else:
            tokens.append(("sel", m.group("sel")))
    return tokens


class Parser:
    """Recursive descent over `comparison := sum (CMP sum)?`,
    `sum := product (('+'|'-') product)*`,
    `product := unary (('*'|'/') unary)*`,
    `unary := '-'? primary`,
    `primary := number | '(' sum ')' | func '(' selector ')' | selector`."""

    FUNCS = ("sum", "avg", "count")

    def __init__(self, tokens, samples, allow_empty=False):
        self.tokens = tokens
        self.pos = 0
        self.samples = samples
        self.allow_empty = allow_empty

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, kind=None, value=None):
        t = self.peek()
        if t is None or (kind and t[0] != kind) or (value and t[1] != value):
            raise EvalError(f"expected {value or kind}, got {t}")
        self.pos += 1
        return t

    def comparison(self):
        left = self.sum()
        t = self.peek()
        if t is None:
            raise EvalError("assertion must be a comparison, e.g. 'x <= 1'")
        op = self.take("op")[1]
        right = self.sum()
        if self.peek() is not None:
            raise EvalError(f"trailing tokens after comparison: {self.peek()}")
        ok = {
            "<=": left <= right,
            "<": left < right,
            ">=": left >= right,
            ">": left > right,
            "==": left == right,
            "!=": left != right,
        }[op]
        return ok, left, op, right

    def sum(self):
        v = self.product()
        while self.peek() in (("op", "+"), ("op", "-")):
            op = self.take("op")[1]
            rhs = self.product()
            v = v + rhs if op == "+" else v - rhs
        return v

    def product(self):
        v = self.unary()
        while self.peek() in (("op", "*"), ("op", "/")):
            op = self.take("op")[1]
            rhs = self.unary()
            if op == "/":
                if rhs == 0:
                    raise EvalError("division by zero (empty denominator?)")
                v /= rhs
            else:
                v *= rhs
        return v

    def unary(self):
        if self.peek() == ("op", "-"):
            self.take("op")
            return -self.primary()
        return self.primary()

    def primary(self):
        t = self.take()
        if t[0] == "num":
            return t[1]
        if t == ("op", "("):
            v = self.sum()
            self.take("op", ")")
            return v
        if t[0] != "sel":
            raise EvalError(f"unexpected token {t}")
        name = t[1]
        if self.peek() == ("op", "("):  # function call
            self.take("op")
            arg = self.take("sel")[1]
            self.take("op", ")")
            return self.call(name, arg)
        return self.value_of(name)

    def call(self, func, arg):
        m = re.fullmatch(r"p(\d{1,2})", func)
        if m:
            return quantile(
                self.samples, arg, int(m.group(1)) / 100.0, self.allow_empty
            )
        if func not in self.FUNCS:
            raise EvalError(f"unknown function {func!r} (want pNN/sum/avg/count)")
        matched = select(self.samples, arg)
        if not matched and func != "count":
            raise EvalError(f"selector {arg!r} matched no samples")
        if func == "count":
            return float(len(matched))
        total = sum(v for _, _, v in matched)
        return total / len(matched) if func == "avg" else total

    def value_of(self, sel):
        matched = select(self.samples, sel)
        if not matched:
            raise EvalError(f"selector {sel!r} matched no samples")
        return sum(v for _, _, v in matched)


def evaluate(expr, samples, allow_empty=False):
    """Returns (ok, rendered) for one assertion expression."""
    ok, left, op, right = Parser(tokenize(expr), samples, allow_empty).comparison()
    return ok, f"{left:.6g} {op} {right:.6g}"


# ---------------------------------------------------------------------------
# Markdown summary
# ---------------------------------------------------------------------------


def fmt_seconds(s):
    if s == math.inf:
        return "inf"
    if s >= 1.0:
        return f"{s:.2f}s"
    if s >= 1e-3:
        return f"{s * 1e3:.2f}ms"
    return f"{s * 1e6:.0f}us"


def summarize(text):
    """Renders the codegend queue families as a GitHub-flavored markdown
    table: one row with the job count, queue-wait and service p50/p99,
    and shed/timeout counts."""
    samples = parse_samples(text)

    def total(name):
        return sum(v for _, _, v in select(samples, name))

    served = total("codegend_service_seconds_count")
    shed = total("codegend_jobs_shed_total")
    timeout = total("codegend_jobs_timeout_total")
    if served > 0:
        stats = [
            fmt_seconds(quantile(samples, f"codegend_{h}_seconds", q))
            for h in ("queue_wait", "service")
            for q in (0.50, 0.99)
        ]
    else:
        stats = ["-"] * 4
    lines = [
        "### codegend queue",
        "",
        "| served | queue p50 | queue p99 | service p50 | service p99 | shed | timeout |",
        "|---|---|---|---|---|---|---|",
        "| {} | {} | {} | {} | {} | {} | {} |".format(
            int(served), *stats, int(shed), int(timeout)
        ),
    ]
    # Shed requests are answered `busy` and counted in requests_total, so
    # the rate is shed-over-total, not shed-over-(total+shed).
    requests = total("codegend_requests_total")
    if requests > 0:
        lines.append("")
        lines.append(
            f"{int(requests)} requests, {int(shed)} shed "
            f"({100.0 * shed / requests:.2f}% shed rate)"
        )
    return "\n".join(lines) + "\n"


GOOD = """\
# HELP codegend_requests Requests handled.
# TYPE codegend_requests counter
codegend_requests_total{kind="kernel",status="ok"} 5
codegend_requests_total{kind="adhoc",status="err"} 1
# HELP codegend_inflight_jobs Jobs currently executing.
# TYPE codegend_inflight_jobs gauge
codegend_inflight_jobs 0
# HELP codegend_request_seconds Request latency.
# TYPE codegend_request_seconds histogram
codegend_request_seconds_bucket{le="0.001"} 2
codegend_request_seconds_bucket{le="0.004"} 5
codegend_request_seconds_bucket{le="+Inf"} 6
codegend_request_seconds_count 6
codegend_request_seconds_sum 0.0125
# EOF
"""

BAD = [
    # counter sample without _total
    (
        "counter sample .* must end in _total",
        "# TYPE x counter\nx 1\n# EOF\n",
    ),
    # metadata after samples
    (
        "after its samples",
        "# TYPE x counter\nx_total 1\n# HELP x late help\n# EOF\n",
    ),
    # non-cumulative buckets
    (
        "not cumulative",
        "# TYPE h histogram\n"
        'h_bucket{le="1"} 5\nh_bucket{le="2"} 3\nh_bucket{le="+Inf"} 5\n'
        "h_count 5\nh_sum 4\n# EOF\n",
    ),
    # +Inf disagrees with _count
    (
        r"\+Inf bucket .* != _count",
        "# TYPE h histogram\n"
        'h_bucket{le="1"} 1\nh_bucket{le="+Inf"} 2\nh_count 3\nh_sum 1\n# EOF\n',
    ),
    # missing +Inf
    (
        r'missing le="\+Inf"',
        "# TYPE h histogram\n"
        'h_bucket{le="1"} 1\nh_count 1\nh_sum 1\n# EOF\n',
    ),
    # missing _sum
    (
        "missing _sum",
        "# TYPE h histogram\n"
        'h_bucket{le="+Inf"} 0\nh_count 0\n# EOF\n',
    ),
    # le edges out of order
    (
        "not strictly increasing",
        "# TYPE h histogram\n"
        'h_bucket{le="2"} 1\nh_bucket{le="1"} 1\nh_bucket{le="+Inf"} 1\n'
        "h_count 1\nh_sum 1\n# EOF\n",
    ),
    # missing terminator
    ("missing # EOF", "# TYPE x gauge\nx 1\n"),
    # garbage sample line
    ("unparseable sample", "# TYPE x gauge\n{oops} yes\n# EOF\n"),
    # duplicate TYPE
    ("duplicate TYPE", "# TYPE x gauge\n# TYPE x gauge\nx 1\n# EOF\n"),
]


# A codegend-shaped scrape for the assertion/summary corpus: 100 jobs
# with a known queue-wait distribution (90 under 1ms, 9 more under 4ms,
# 1 in +Inf), 2 sheds against 102 requests.
ASSERT_SCRAPE = """\
# TYPE codegend_requests counter
codegend_requests_total{kind="kernel",status="ok"} 100
codegend_requests_total{kind="kernel",status="busy"} 2
# TYPE codegend_jobs_shed counter
codegend_jobs_shed_total 2
# TYPE codegend_queue_wait_seconds histogram
codegend_queue_wait_seconds_bucket{le="0.001"} 90
codegend_queue_wait_seconds_bucket{le="0.004"} 99
codegend_queue_wait_seconds_bucket{le="+Inf"} 100
codegend_queue_wait_seconds_count 100
codegend_queue_wait_seconds_sum 0.2
# TYPE codegend_service_seconds histogram
codegend_service_seconds_bucket{le="0.001"} 50
codegend_service_seconds_bucket{le="+Inf"} 100
codegend_service_seconds_count 100
codegend_service_seconds_sum 0.3
# TYPE codegend_codegen_seconds histogram
codegend_codegen_seconds_bucket{le="0.001"} 0
codegend_codegen_seconds_bucket{le="+Inf"} 0
codegend_codegen_seconds_count 0
codegend_codegen_seconds_sum 0
# EOF
"""

# (expression, expected verdict) — or (expression, EvalError) when the
# expression itself must be rejected.
ASSERT_CASES = [
    ("p50(codegend_queue_wait_seconds) <= 0.001", True),
    ("p99(codegend_queue_wait_seconds) <= 0.004", True),
    # The 100th percentile lands in the +Inf bucket — no finite bound
    # can pass, by design.
    ("p99(codegend_queue_wait_seconds) <= 0.001", False),
    ("codegend_jobs_shed_total / codegend_requests_total <= 0.05", True),
    ("codegend_jobs_shed_total / codegend_requests_total < 0.01", False),
    ('sum(codegend_requests_total{status="ok"}) >= 100', True),
    ("count(codegend_requests_total) == 2", True),
    ('codegend_requests_total{status="ok"} + codegend_jobs_shed_total == 102', True),
    ("no_such_metric > 0", EvalError),  # typos fail loudly, not as 0
    ("p99(codegend_requests_total) > 0", EvalError),  # not a histogram
    ("codegend_requests_total", EvalError),  # not a comparison
    ("codegend_requests_total / (1 - 1) > 0", EvalError),  # div by zero
    # A zero-observation histogram must not pass a latency gate as p99=0.
    ("p99(codegend_codegen_seconds) <= 1", EvalError),
    # A label selector matching no series is no histogram at all.
    ('p99(codegend_service_seconds{kind="none"}) <= 1', EvalError),
]

# The --allow-empty escape hatch: the same empty-histogram quantiles
# read as 0.0 instead of erroring; everything else is unchanged.
ALLOW_EMPTY_CASES = [
    ("p99(codegend_codegen_seconds) <= 1", True),
    ("p99(codegend_codegen_seconds) == 0", True),
    ("p99(codegend_queue_wait_seconds) <= 0.004", True),
    ("no_such_metric > 0", EvalError),  # typos still fail loudly
]


def self_test():
    failures = 0
    errs = check_text(GOOD, strict=True)
    if errs:
        failures += 1
        print("self-test: GOOD corpus rejected:", file=sys.stderr)
        for e in errs:
            print(f"  {e}", file=sys.stderr)
    for pattern, text in BAD:
        errs = check_text(text, strict=True)
        if not any(re.search(pattern, e) for e in errs):
            failures += 1
            print(
                f"self-test: BAD corpus not caught (wanted /{pattern}/, got {errs})",
                file=sys.stderr,
            )
    samples = parse_samples(ASSERT_SCRAPE)
    for cases, allow_empty in ((ASSERT_CASES, False), (ALLOW_EMPTY_CASES, True)):
        for expr, want in cases:
            try:
                ok, rendered = evaluate(expr, samples, allow_empty)
            except EvalError as e:
                if want is not EvalError:
                    failures += 1
                    print(f"self-test: {expr!r} raised {e}", file=sys.stderr)
                continue
            if want is EvalError:
                failures += 1
                print(f"self-test: {expr!r} should be rejected", file=sys.stderr)
            elif ok is not want:
                failures += 1
                print(
                    f"self-test: {expr!r} -> {ok} ({rendered}), want {want}",
                    file=sys.stderr,
                )
    md = summarize(ASSERT_SCRAPE)
    for needle in ("| 100 | 1.00ms | 4.00ms |", "| 2 | 0 |", "1.96% shed rate"):
        if needle not in md:
            failures += 1
            print(f"self-test: summary missing {needle!r}:\n{md}", file=sys.stderr)
    if failures:
        print(f"self-test: {failures} failure(s)", file=sys.stderr)
        return 1
    print(
        f"self-test: ok (1 good, {len(BAD)} bad expositions, "
        f"{len(ASSERT_CASES) + len(ALLOW_EMPTY_CASES)} assertions)"
    )
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("file", nargs="?", help="scrape to validate ('-' = stdin)")
    ap.add_argument(
        "--self-test", action="store_true", help="run the embedded corpus instead"
    )
    ap.add_argument(
        "--strict",
        action="store_true",
        help="also fail on samples with no TYPE declaration",
    )
    ap.add_argument(
        "--assert",
        dest="asserts",
        action="append",
        default=[],
        metavar="EXPR",
        help="threshold assertion over the scrape, e.g. "
        "'p99(codegend_queue_wait_seconds) <= 0.25' "
        "(repeatable; all must hold)",
    )
    ap.add_argument(
        "--allow-empty",
        action="store_true",
        help="treat quantiles over zero-observation histograms as 0.0 "
        "instead of erroring (for gates that must tolerate idle scrapes)",
    )
    ap.add_argument(
        "--summary",
        action="store_true",
        help="print the one-row queue table as GitHub-flavored markdown",
    )
    args = ap.parse_args()
    if args.self_test:
        sys.exit(self_test())
    if not args.file:
        ap.error("FILE required unless --self-test")
    text = sys.stdin.read() if args.file == "-" else open(args.file).read()
    if args.summary:
        print(summarize(text), end="")
        return
    errors = check_text(text, strict=args.strict)
    for e in errors:
        print(e, file=sys.stderr)
    samples = parse_samples(text)
    failed = 0
    for expr in args.asserts:
        try:
            ok, rendered = evaluate(expr, samples, args.allow_empty)
        except EvalError as e:
            failed += 1
            print(f"assert ERROR {expr}  ({e})", file=sys.stderr)
            continue
        verdict = "ok" if ok else "FAIL"
        out = sys.stdout if ok else sys.stderr
        print(f"assert {verdict} {expr}  ({rendered})", file=out)
        failed += 0 if ok else 1
    n_samples = sum(
        1 for l in text.split("\n") if l and not l.startswith("#")
    )
    if errors or failed:
        print(
            f"{len(errors)} error(s), {failed} failed assertion(s) "
            f"in {n_samples} samples",
            file=sys.stderr,
        )
        sys.exit(1)
    print(f"ok: {n_samples} samples, valid exposition")


if __name__ == "__main__":
    main()
