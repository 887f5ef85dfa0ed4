"""Compare two sets of end-to-end benchmark results.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py --base A1.json A2.json ... --new B1.json ...

Each file is one ``run.py --out`` result file.  For every (end-to-end
metric, workload) present in both sets it prints each side's median and
quartiles and a verdict against the metric's bound in BENCHMARK.json:

- ``REGRESSION`` — the new median is worse than the base median by more
  than the bound;
- ``unresolved`` — the spread between runs (interquartile range over
  median) of either side exceeds the bound, so the medians cannot be
  told apart, unless every new run reads better than every base run;
- ``better`` / ``ok`` — otherwise.

Per-layer metrics from ``--trace`` runs are listed with their medians,
and counts are marked ``exact`` when every run of a side read the same.
The exit status is 1 if any run failed its output checks or any metric
is a regression or unresolved, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(paths: list[Path]) -> list[dict]:
    records = []
    for path in paths:
        records.extend(json.loads(path.read_text())["results"])
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base_med, new_med = statistics.median(base), statistics.median(new)
    worse = sign * (new_med - base_med) / abs(base_med) if base_med else 0.0
    if max(spread(base), spread(new)) > bound:
        if all(sign * n < sign * b for n in new for b in base):
            return "better"
        return "unresolved"
    if worse > bound:
        return "REGRESSION"
    return "better" if worse < -bound else "ok"


def _values(records: list[dict], workload: str, metric: str) -> list[float]:
    return [
        r["metrics"][metric]["value"]
        for r in records
        if r["workload"] == workload and metric in r["metrics"]
    ]


def _fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:>11.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def compare(base: list[dict], new: list[dict], config: dict) -> int:
    status = 0
    for r in base + new:
        if r["failed"]:
            print(f"{r['workload']} seed {r['seed']}: {r['failed']} output checks failed")
            status = 1
    workloads = [w["name"] for w in config["workloads"]]
    print(f"{'workload':<14} {'metric':<14} {'base median [q1, q3]':<36} "
          f"{'new median [q1, q3]':<36} {'change':>8}  verdict (bound)")
    for w in workloads:
        for m in config["end_to_end"]:
            b, n = _values(base, w, m["name"]), _values(new, w, m["name"])
            if not b or not n:
                continue
            change = statistics.median(n) / statistics.median(b) - 1.0
            v = verdict(b, n, m["better"], m["bound"])
            if v in ("REGRESSION", "unresolved"):
                status = 1
            print(f"{w:<14} {m['name']:<14} {_fmt(b):<36} {_fmt(n):<36} "
                  f"{100 * change:>+7.1f}%  {v} ({100 * m['bound']:.0f}%)")
    for w in workloads:
        for m in config["per_layer"]:
            b, n = _values(base, w, m["name"]), _values(new, w, m["name"])
            if not b or not n:
                continue
            exact = ""
            if m["unit"] == "count":
                exact = "  exact" if len(set(b)) == 1 and len(set(n)) == 1 else "  varies"
            print(f"{w:<14} {m['name']:<40} base {statistics.median(b):>12.6g} "
                  f"new {statistics.median(n):>12.6g} {m['unit']}{exact}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, nargs="+", required=True)
    parser.add_argument("--new", type=Path, nargs="+", required=True)
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(load(args.base), load(args.new), config)


if __name__ == "__main__":
    sys.exit(main())
