"""Tests of the end-to-end benchmark itself, at tiny job counts.

Run with ``pytest benchmarks/e2e -q`` from the repository root.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts the checkout's src/ on sys.path first)
import compare  # noqa: E402
from layers import BOUNDARIES, MOVES, LayerTracer, _resolve  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Job counts small enough for a unit test, passed as arguments.
TINY_JOBS = {"wait-grid": 80, "sched-grid": 80, "service-churn": 120, "replay-full": 120}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _tiny(name: str, trace: bool) -> dict:
    return run.run_workload(
        name, seed=1, seconds=0.0, trace=trace, jobs=TINY_JOBS[name],
        warmup_jobs=20, check_jobs=40, setups=1,
    )


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def runs(request):
    """One timed and two traced tiny runs of a workload."""
    name = request.param
    originals = {b.target: getattr(*_resolve(b.target)) for b in BOUNDARIES}
    timed = _tiny(name, trace=False)
    traced = [_tiny(name, trace=True) for _ in range(2)]
    return name, timed, traced, originals


def test_runs_pass_their_output_checks(runs):
    _name, timed, traced, _ = runs
    for record in (timed, *traced):
        assert record["attempted"] >= 1
        assert record["failed"] == 0, record["info"]["failures"]


def test_runs_report_every_benchmark_metric(runs):
    _name, timed, (traced, _), _ = runs
    for record, kind in ((timed, "end_to_end"), (traced, "per_layer")):
        units = run.metric_units(kind)
        assert {k: m["unit"] for k, m in record["metrics"].items()} == units
        for m in record["metrics"].values():
            assert isinstance(m["value"], (int, float))


def test_traced_and_untraced_digests_are_equal(runs):
    _name, timed, traced, _ = runs
    assert timed["info"]["digests"] == traced[0]["info"]["digests"]


def test_per_layer_counts_repeat_exactly(runs):
    _name, _timed, (first, second), _ = runs
    for metric, unit in run.metric_units("per_layer").items():
        if unit == "count":
            assert first["metrics"][metric] == second["metrics"][metric], metric


def test_self_times_and_untraced_gaps_sum_to_traced_wall(runs):
    _name, _timed, (traced, _), _ = runs
    aggregates = traced["info"]["aggregates"]  # [name, parent, count, incl, self]
    roots = [a for a in aggregates if a[1] is None]
    assert roots and all(a[0].startswith("cell:") for a in roots)
    gaps = sum(a[4] for a in roots)
    selves = sum(a[4] for a in aggregates if a[1] is not None)
    assert selves + gaps == pytest.approx(sum(a[3] for a in roots), rel=1e-9)
    assert selves + gaps == pytest.approx(traced["info"]["traced_wall_s"], rel=1e-2)


def test_wrappers_are_restored_after_the_traced_run(runs):
    *_, originals = runs
    for b in BOUNDARIES:
        assert getattr(*_resolve(b.target)) is originals[b.target], b.target


def test_drift_guard_names_boundaries_never_hit():
    missing = LayerTracer().missing("wait-grid")
    assert "repro.waitpred.fast:forward_simulate" in missing
    assert "repro.service.service:backfill_predicted_starts" not in missing
    assert "repro.service.service:backfill_predicted_starts" in (
        LayerTracer().missing("service-churn")
    )


def test_boundaries_name_real_workloads():
    # A misspelt workload would silently switch the drift guard off.
    for b in BOUNDARIES:
        assert set(b.required) <= set(WORKLOADS), b.target


def test_benchmark_json_validates():
    config = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(config) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert config["paths"] == ["benchmarks/e2e"]
    assert config["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(config["run_seconds"], int) and 1 <= config["run_seconds"] <= 60

    names = [w["name"] for w in config["workloads"]]
    assert names == list(WORKLOADS)
    for w in config["workloads"]:
        assert set(w) == {"name", "why"}
        assert w["why"] and "\n" not in w["why"] and len(w["why"]) <= 200

    e2e = config["end_to_end"]
    assert 1 <= len(e2e) <= 16
    for m in e2e:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["better"] in ("lower", "higher") and m["bound"] > 0
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in e2e)

    per_layer = config["per_layer"]
    assert 1 <= len(per_layer) <= 128
    assert {m["name"] for m in per_layer} == set(MOVES)
    for m in per_layer:
        assert set(m) == {"name", "unit", "better"}
        assert m["better"] in ("lower", "higher")
        moves = MOVES[m["name"]]
        assert moves, f"{m['name']} names no end-to-end metric it moves"
        for metric, workload in moves:
            assert metric in {e["name"] for e in e2e} and workload in WORKLOADS

    all_names = names + [m["name"] for m in e2e + per_layer]
    assert len(all_names) == len(set(all_names))
    for name in all_names:
        assert NAME.match(name), name
    for m in e2e + per_layer:
        assert UNIT.match(m["unit"]), m["unit"]


def test_compare_flags_regressions_and_unresolved_spreads():
    def records(workload, values):
        return [
            {"workload": workload, "seed": i, "failed": 0,
             "metrics": {"wall_s": {"value": v, "unit": "s"}}}
            for i, v in enumerate(values)
        ]

    config = {
        "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}],
        "per_layer": [],
    }
    steady = records("w", [1.00, 1.01, 0.99])
    assert compare.compare(steady, records("w", [1.02, 1.00, 1.01]), config) == 0
    assert compare.compare(steady, records("w", [1.30, 1.31, 1.29]), config) == 1
    assert compare.verdict([1.0, 1.01, 0.99], [1.3, 1.31, 1.29], "lower", 0.1) == "REGRESSION"
    assert compare.verdict([1.0, 1.5, 0.7], [1.0, 1.4, 0.8], "lower", 0.1) == "unresolved"
    assert compare.verdict([2.0, 2.5, 2.2], [1.0, 1.2, 0.8], "lower", 0.1) == "better"


def test_without_the_program_sources_the_benchmark_fails(tmp_path):
    """A directory holding only BENCHMARK.json and benchmarks/e2e cannot run."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "wait-grid",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
