#!/usr/bin/env python3
"""Gate a fresh `table1 --json` snapshot against the committed baseline.

The gate checks only what does not depend on the host it runs on:

* **Exact work.** Per kernel and tool, `lines`, `dynamic_cost` and
  `instances`; per kernel, the CodeGen+ solver work of one cold generation
  (the `report.counters` listed in `COUNTERS` and `report.exact_solves`).
  Per ablation cell (kernel and generator variant), `lines`,
  `dynamic_cost`, `instances` and `sat_queries`. These change only when
  code generation itself changes, and such a change must be reviewed by
  re-committing `BENCH_table1.json`.
* **Time, as a within-run ratio.** Total CLooG `codegen_ns` over total
  CodeGen+ `codegen_ns` across the kernels. Both tools are timed in the same
  process on the same host, so the host's speed cancels out. The check
  fails when the ratio moves by more than `--ratio-bound` (default 1.5x) in
  either direction from the baseline's ratio.

Absolute nanoseconds are printed for information only: a snapshot taken on
another machine is not a time budget.

When `$GITHUB_STEP_SUMMARY` is set (or `--summary FILE` is given), a
per-kernel markdown table is appended to it for the CI job summary.

Exit status: 0 clean, 1 regression, 2 usage/shape error.
"""

import argparse
import json
import os
import sys

EXACT = ("lines", "dynamic_cost", "instances")
ABLATION = EXACT + ("sat_queries",)
TOOLS = ("cloog", "cgplus")
# CodeGen+ solver counters of one cold generation (`report.counters`).
COUNTERS = (
    "cache_hits",
    "cache_misses",
    "tier0_unsat",
    "tier1_unsat",
    "tier1_sat",
    "gist_hits",
    "gist_misses",
)


def die(msg):
    print(msg, file=sys.stderr)
    sys.exit(2)


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("version") != 2:
        die(f"{path}: unsupported snapshot version {doc.get('version')!r}")
    for row in doc["rows"]:
        if "report" not in row:
            die(f"{path}: row {row.get('kernel')!r} has no report; regenerate with table1 --json")
    return doc


def work(row):
    """The exact CodeGen+ work figures of one row, by name."""
    counters = row["report"]["counters"]
    out = {name: counters[name] for name in COUNTERS}
    out["exact_solves"] = row["report"]["exact_solves"]
    return out


def speedup(rows):
    """Total CLooG codegen time over total CodeGen+ codegen time."""
    cloog = sum(r["cloog"]["codegen_ns"] for r in rows)
    cgplus = sum(r["cgplus"]["codegen_ns"] for r in rows)
    return cloog / max(cgplus, 1)


def summary_table(rows, base_ratio, cur_ratio):
    lines = [
        "### Bench snapshot vs committed baseline",
        "",
        f"CLooG/CG+ codegen time: baseline {base_ratio:.2f}, current {cur_ratio:.2f}"
        f" (moved {cur_ratio / base_ratio:.2f}x)",
        "",
        "| kernel | tool | baseline codegen | current codegen (information) |",
        "|---|---|---:|---:|",
    ]
    for kernel, tool, base_ns, cur_ns in rows:
        lines.append(f"| {kernel} | {tool} | {base_ns:,} ns | {cur_ns:,} ns |")
    lines.append("")
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", help="committed BENCH_table1.json")
    ap.add_argument("current", help="freshly generated snapshot")
    ap.add_argument(
        "--ratio-bound",
        type=float,
        default=1.5,
        help="allowed factor by which the CLooG/CG+ codegen-time ratio may"
        " move in either direction (default 1.5)",
    )
    ap.add_argument(
        "--summary",
        default=os.environ.get("GITHUB_STEP_SUMMARY"),
        help="markdown file to append the per-kernel table to"
        " (default: $GITHUB_STEP_SUMMARY when set)",
    )
    args = ap.parse_args()
    base, cur = load(args.baseline), load(args.current)

    if base["n"] != cur["n"]:
        die(f"problem size differs: baseline n={base['n']}, current n={cur['n']}")
    base_rows = {r["kernel"]: r for r in base["rows"]}
    cur_rows = {r["kernel"]: r for r in cur["rows"]}
    if set(base_rows) != set(cur_rows):
        die(f"kernel sets differ: baseline {sorted(base_rows)}, current {sorted(cur_rows)}")

    failures = []
    table_rows = []
    for kernel in base_rows:
        b_row, c_row = base_rows[kernel], cur_rows[kernel]
        for tool in TOOLS:
            b, c = b_row[tool], c_row[tool]
            for key in EXACT:
                if b[key] != c[key]:
                    failures.append(f"{kernel}/{tool}/{key}: {c[key]} != baseline {b[key]}")
            print(
                f"{kernel}/{tool}: codegen {b['codegen_ns']} -> {c['codegen_ns']} ns"
                " (information only)"
            )
            table_rows.append((kernel, tool, b["codegen_ns"], c["codegen_ns"]))
        b_work, c_work = work(b_row), work(c_row)
        for key in b_work:
            if b_work[key] != c_work[key]:
                failures.append(
                    f"{kernel}/cgplus/{key}: {c_work[key]} != baseline {b_work[key]}"
                )

    base_cells = {(a["kernel"], a["variant"]): a for a in base["ablations"]}
    cur_cells = {(a["kernel"], a["variant"]): a for a in cur["ablations"]}
    if set(base_cells) != set(cur_cells):
        die(f"ablation cells differ: baseline {sorted(base_cells)}, current {sorted(cur_cells)}")
    for (kernel, variant), b in base_cells.items():
        c = cur_cells[(kernel, variant)]
        for key in ABLATION:
            if b[key] != c[key]:
                failures.append(f"{kernel}/{variant}/{key}: {c[key]} != baseline {b[key]}")

    base_ratio, cur_ratio = speedup(base["rows"]), speedup(cur["rows"])
    moved = cur_ratio / base_ratio
    print(
        f"\nCLooG/CG+ codegen time: baseline {base_ratio:.2f}, current {cur_ratio:.2f}"
        f" (moved {moved:.2f}x, bound {args.ratio_bound:.2f}x)"
    )
    if not 1 / args.ratio_bound <= moved <= args.ratio_bound:
        failures.append(
            f"CLooG/CG+ codegen-time ratio moved {moved:.2f}x"
            f" ({base_ratio:.2f} -> {cur_ratio:.2f}), beyond {args.ratio_bound:.2f}x"
        )

    if args.summary:
        try:
            with open(args.summary, "a") as f:
                f.write(summary_table(table_rows, base_ratio, cur_ratio) + "\n")
        except OSError as e:
            print(f"cannot write summary {args.summary}: {e}", file=sys.stderr)

    if failures:
        print(f"\n{len(failures)} regression(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        print(
            "review the change; re-commit BENCH_table1.json if the new figures"
            " are intended",
            file=sys.stderr,
        )
        sys.exit(1)
    print("\nbench snapshot matches the baseline")


if __name__ == "__main__":
    main()
