"""End-to-end benchmark: paper grids, online wait queries, full-scale replay.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace [0|1]] [--out FILE] [--update-expected]

``BENCHMARK.json``'s command is called as ``run.py --workload NAME
--seed N --seconds S --trace 0|1``, with ``S`` its ``run_seconds``;
``--seconds`` defaults to that value, so a bare run measures the same.
BENCHMARK.json also holds every metric's name, unit and direction.

With one workload the run happens in this process; with several (the
default is all four) each runs in its own fresh subprocess, one after
another.  A run sets its inputs up three times (trace generation plus an
untimed warm-up on a 200-job prefix of each trace), then replays the
workload's cells in a fixed order for ``--seconds`` seconds, always
completing at least one full cycle, then runs untimed output checks.
Every timing is converted to quiet-host speed with the host-speed
samples of :mod:`reference`.  Every metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

``--trace 1`` replaces the timed phase by one untraced cycle and one
cycle with every layer boundary of :mod:`layers` wrapped, and prints the
per-layer metrics with the tracing overhead.  ``--update-expected``
re-pins the output digests of the run's seed in ``expected.json``.

The load is closed-loop with one caller, the benchmark thread itself;
BLAS threads are pinned to one so the process stays single-threaded.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
if SRC.is_dir():
    sys.path.insert(0, str(SRC))


def _import_program() -> None:
    """Import the checkout's own ``repro``, never an installed copy."""
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"e2e benchmark: cannot import repro from {SRC}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"e2e benchmark: repro imported from {repro.__file__}, not {SRC}")


_import_program()

import numpy as np  # noqa: E402  (after the BLAS thread pins)
from layers import LayerTracer, per_layer_metrics  # noqa: E402
from reference import REF_S, SPEED  # noqa: E402
from workloads import WORKLOADS, Probe, Workload, digest, prefix  # noqa: E402

_T_IMPORTED = time.perf_counter()
_IMPORT_S = _T_IMPORTED - _T_START

WARMUP_JOBS = 200
CHECK_JOBS = 300
SETUPS = 3
PINNED_SEEDS = (0, 1)


def benchmark_config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of BENCHMARK.json's ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in benchmark_config()[kind]}


class Checks:
    """Output checks: the benchmark's ``attempted`` and ``failed``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(name)
        return ok


def _sample_speed() -> None:
    if SPEED.active:
        SPEED.sample()


def _run_cell(cell, probe: Probe, tracer: LayerTracer | None = None):
    """``(seconds, Output)`` of one cell, from a collected heap.

    The cell's marks, from its start to its end, are left in ``probe``;
    the host's speed is sampled just before and just after.
    """
    gc.collect()
    probe.marks.clear()
    probe.ops.clear()
    probe.skips.clear()
    _sample_speed()
    probe.marks.append(time.perf_counter())
    if tracer is None:
        out = cell.run(probe)
    else:
        with tracer.span(f"cell:{cell.name}"):
            out = cell.run(probe)
    probe.marks.append(time.perf_counter())
    _sample_speed()
    return probe.marks[-1] - probe.marks[0], out


def _cycle(w: Workload, cells, tracer: LayerTracer | None = None):
    """Every cell once, op timer on: ``{cell: (seconds, Output)}``."""
    probe = Probe()
    with w.op_timer(probe):
        return {cell.name: _run_cell(cell, probe, tracer) for cell in cells}


def _setup(w: Workload, seed: int, jobs, warmup_jobs: int):
    """Generate the inputs and warm every cell up on a prefix of them.

    Returns ``(traces, generation seconds, set-up seconds)``.  The set-up
    time is at quiet-host speed: the span less the host-speed samples
    taken in it, over the median slowdown those samples show.
    """
    _sample_speed()
    first, spent = len(SPEED.durations), SPEED.spent
    t0 = time.perf_counter()
    traces = w.build(seed, jobs)
    generate_s = time.perf_counter() - t0
    _sample_speed()
    _cycle(w, w.cells(prefix(traces, warmup_jobs)))
    setup_s = time.perf_counter() - t0
    if SPEED.active:
        setup_s -= SPEED.spent - spent
        setup_s /= statistics.median(SPEED.durations[first - 1:]) / REF_S
    return traces, generate_s, setup_s


def _at_quiet_speed(probe: Probe) -> tuple[float, float, np.ndarray]:
    """A cell's raw seconds, its seconds at quiet-host speed, and its ops'.

    Each segment loses the host-speed samples taken in it and is divided
    by the host's slowdown at its midpoint.
    """
    marks = np.asarray(probe.marks)
    raw = np.diff(marks)
    segments = raw.copy()
    for i, seconds in probe.skips:
        segments[i] -= seconds
    segments /= SPEED.slowdown(marks[:-1] + 0.5 * raw)
    return float(raw.sum()), float(segments.sum()), segments[probe.ops]


def _timed(w: Workload, cells, seconds: float):
    """Cycle through the cells until ``seconds`` pass (at least one cycle).

    Returns every cell's raw and quiet-speed times, its ops' quiet-speed
    latencies, its output digests and its program counters, one per
    repeat; and the number of complete cycles.
    """
    raw: dict[str, list[float]] = {c.name: [] for c in cells}
    times: dict[str, list[float]] = {c.name: [] for c in cells}
    ops: dict[str, list[np.ndarray]] = {c.name: [] for c in cells}
    digests: dict[str, list[str]] = {c.name: [] for c in cells}
    counters: dict[str, list[dict]] = {c.name: [] for c in cells}
    cycles = 0
    probe = Probe()
    begin = time.perf_counter()
    with w.op_timer(probe):
        while True:
            for cell in cells:
                if cycles and time.perf_counter() - begin >= seconds:
                    return raw, times, ops, digests, counters, cycles
                _dt, out = _run_cell(cell, probe)
                raw_s, cell_s, op_s = _at_quiet_speed(probe)
                raw[cell.name].append(raw_s)
                times[cell.name].append(cell_s)
                ops[cell.name].append(op_s.astype(np.float32))
                digests[cell.name].append(digest(out))
                counters[cell.name].append(out.counters)
            cycles += 1
            if time.perf_counter() - begin >= seconds:
                return raw, times, ops, digests, counters, cycles


def _measure(w: Workload, cells, seconds: float, checks: Checks, info: dict):
    """End-to-end timings of the timed phase, at quiet-host speed.

    ``wall_s`` adds up every cell's median time over its repeats.  A
    cell is deterministic, so its n-th op does the same work in every
    repeat: each op's latency is its median over the repeats, which
    drops the bursts of a few milliseconds that the host-speed samples
    are too sparse to see, and the op percentiles are taken over those.
    Program counters, such as the service's cached-query throughput, are
    medians over the repeats.
    """
    raw, times, ops, repeats, counters, cycles = _timed(w, cells, seconds)
    digests = {name: ds[0] for name, ds in repeats.items()}
    for name, ds in repeats.items():
        for d in ds[1:]:
            checks.add(f"{name} repeats its output", d == digests[name])
    per_op = []
    for name, reps in ops.items():
        aligned = checks.add(f"{name} repeats its ops", len({len(r) for r in reps}) == 1)
        per_op.append(np.median(np.stack(reps), axis=0) if aligned else reps[0])
    op_s = np.concatenate(per_op)
    info.update(
        cycles=cycles,
        op_samples=len(op_s),
        cell_s={k: statistics.median(v) for k, v in times.items()},
        cell_samples={k: len(v) for k, v in times.items()},
        raw_wall_s=sum(statistics.median(v) for v in raw.values()),
        host_slowdown=statistics.median(SPEED.durations) / REF_S,
        counters={
            name: {k: statistics.median(c[k] for c in cs) for k in cs[0]}
            for name, cs in counters.items()
        },
    )
    p50, p99 = np.percentile(op_s, [50, 99])
    metrics = {
        "wall_s": sum(info["cell_s"].values()),
        "op_p50_ms": 1e3 * float(p50),
        "op_p99_ms": 1e3 * float(p99),
    }
    return metrics, digests


def _traced(w: Workload, cells, generate_s: float, checks: Checks, info: dict):
    """One untraced and one traced cycle; per-layer metrics from the latter."""
    plain = _cycle(w, cells)
    tracer = LayerTracer()
    with tracer.installed():
        traced = _cycle(w, cells, tracer)
    missing = tracer.missing(w.name)
    if missing:
        raise RuntimeError(
            f"{w.name}: the traced run never reached {missing}; work has moved "
            "around these boundaries, so benchmarks/e2e/layers.py needs updating"
        )
    digests = {name: digest(out) for name, (_dt, out) in traced.items()}
    for name, (_dt, out) in plain.items():
        checks.add(f"{name} traced == untraced", digest(out) == digests[name])

    def counter(key: str) -> float:
        return sum(out.counters.get(key, 0) for _dt, out in traced.values())

    untraced_wall = sum(dt for dt, _o in plain.values())
    obs_overhead_s = sum(
        dt - plain[name.replace("/instrumented", "/plain")][0]
        for name, (dt, _o) in plain.items()
        if name.endswith("/instrumented")
    )
    program = {
        "workloads.generate_s": generate_s,
        "scheduler.estimate_misses": counter("estimate_misses"),
        "obs.events": counter("obs_events"),
        "obs.bytes": counter("obs_bytes"),
        "obs.overhead_pct": 100.0 * obs_overhead_s / untraced_wall,
        "service.hit_ratio": counter("hit_ratio"),
        "service.fallbacks": counter("fallbacks"),
    }
    traced_wall = sum(dt for dt, _o in traced.values())
    info.update(
        cell_s={name: dt for name, (dt, _o) in plain.items()},
        traced_cell_s={name: dt for name, (dt, _o) in traced.items()},
        untraced_wall_s=untraced_wall,
        traced_wall_s=traced_wall,
        tracing_overhead=traced_wall / untraced_wall - 1.0,
        aggregates=[[n, p, *agg] for (n, p), agg in sorted(tracer.aggregates.items(),
                                                           key=str)],
    )
    return per_layer_metrics(tracer, program), digests, tracer.spans


def _pinned(workload: str, seed: int, jobs) -> dict | None:
    """Pinned cell digests for this run, or ``None`` if none apply."""
    if seed not in PINNED_SEEDS or jobs != WORKLOADS[workload].default_jobs:
        return None
    if not EXPECTED.exists():
        return None
    return json.loads(EXPECTED.read_text()).get(workload, {}).get(str(seed))


def run_workload(
    name: str,
    *,
    seed: int = 0,
    seconds: float = 0.0,
    trace: bool = False,
    jobs: int | None | str = "default",
    warmup_jobs: int = WARMUP_JOBS,
    check_jobs: int = CHECK_JOBS,
    setups: int = SETUPS,
) -> dict:
    """Run one workload and return its result record.

    ``jobs``, ``warmup_jobs``, ``check_jobs`` and ``setups`` shrink the
    run for tests; pinned digests are checked only at the default size.
    """
    w = WORKLOADS[name]
    jobs = w.default_jobs if jobs == "default" else jobs
    checks = Checks()
    SPEED.active = not trace
    setup_s = []
    for _ in range(1 if trace else setups):
        traces = None  # free the last set-up's traces before building anew
        traces, generate_s, dt = _setup(w, seed, jobs, warmup_jobs)
        setup_s.append(dt)
    cells = w.cells(traces)
    info: dict = {"op": w.op, "jobs": jobs, "cells": [c.name for c in cells]}
    spans = None
    if trace:
        metrics, digests, spans = _traced(w, cells, generate_s, checks, info)
        units = metric_units("per_layer")
    else:
        metrics, digests = _measure(w, cells, seconds, checks, info)
        import_s = _IMPORT_S / float(SPEED.slowdown(_T_IMPORTED))
        metrics["setup_s"] = import_s + statistics.median(setup_s)
        units = metric_units("end_to_end")

    pinned = _pinned(name, seed, jobs)
    if pinned is not None:
        for cell_name, d in digests.items():
            checks.add(f"{cell_name} matches expected.json", pinned.get(cell_name) == d)
    for check_name, ok in w.cross_checks(prefix(traces, check_jobs)):
        checks.add(check_name, ok)
    if not trace:
        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = kib / 1024.0

    info.update(digests=digests, failures=checks.failures)
    record = {
        "workload": name,
        "seed": seed,
        "trace": bool(trace),
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "info": info,
    }
    if spans is not None:
        record["spans"] = spans
    return record


def _print_record(r: dict) -> None:
    info = r["info"]
    print(f"== {r['workload']}  seed {r['seed']}  {'traced' if r['trace'] else 'timed'}")
    print(f"   op: {info['op']}")
    for name, m in r["metrics"].items():
        print(f"   {name:<40} {m['value']:>16.6g} {m['unit']}")
    if r["trace"]:
        print(f"   tracing overhead: {100 * info['tracing_overhead']:+.1f}% "
              f"({info['traced_wall_s']:.3f} s traced vs "
              f"{info['untraced_wall_s']:.3f} s untraced, one cycle each)")
    else:
        print(f"   {info['cycles']} complete cycles; repeats per cell: "
              f"{info['cell_samples']}; op percentiles over {info['op_samples']} ops, "
              "each at its median over the repeats")
        print(f"   host slowdown {info['host_slowdown']:.3f} (median); raw wall "
              f"{info['raw_wall_s']:.4g} s; cell medians at quiet-host speed (s): "
              f"{info['cell_s']}")
        print(f"   program counters (median over repeats): {info['counters']}")
    print(f"   checks: {r['attempted']} attempted, {r['failed']} failed"
          + (f": {info['failures']}" if info["failures"] else ""))


def _set_pins(workload: str, seed: int, digests: dict | None) -> None:
    """Pin (or, with ``None``, unpin) one seed's digests in expected.json."""
    pins = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    pins.setdefault(workload, {}).pop(str(seed), None)
    if digests is not None:
        pins[workload][str(seed)] = digests
    EXPECTED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def _contract_line(results: list[dict]) -> dict:
    """The last output line: one workload's metrics, or all prefixed."""
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def _in_subprocess(name: str, args, out: Path | None) -> dict:
    """Run one workload in a fresh interpreter and return its record."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.update_expected:
        cmd.append("--update-expected")
    part = None
    if out is not None:
        part = out.with_name(f"{out.name}.{name}.part")
        cmd += ["--out", str(part)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    print("\n".join(lines[:-1]), flush=True)
    if proc.returncode != 0 or not lines:
        sys.exit(f"e2e benchmark: workload {name} exited with {proc.returncode}")
    if part is None:
        return dict(json.loads(lines[-1]), workload=name, seed=args.seed,
                    trace=bool(args.trace))
    try:
        return json.loads(part.read_text())["results"][0]
    finally:
        part.unlink()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 is the paper's traces unperturbed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer run instead of the timed one")
    parser.add_argument("--out", type=Path, help="write the full result records here")
    parser.add_argument("--update-expected", action="store_true",
                        help="re-pin this seed's output digests in expected.json")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(benchmark_config()["run_seconds"])
    names = args.workload or list(WORKLOADS)

    if len(names) == 1:
        if args.update_expected:
            _set_pins(names[0], args.seed, None)  # so the stale pins go unchecked
        record = run_workload(names[0], seed=args.seed, seconds=args.seconds,
                              trace=bool(args.trace))
        if args.update_expected:
            _set_pins(names[0], args.seed, record["info"]["digests"])
        _print_record(record)
        results = [record]
    else:
        results = [_in_subprocess(name, args, args.out) for name in names]
    if args.out is not None:
        args.out.write_text(json.dumps({"results": results}) + "\n")
    print(json.dumps(_contract_line(results)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
