"""Smith's paths answer their t quantiles without importing SciPy.

Smith's rule asks only for 90% intervals, whose quantiles
:mod:`repro.stats.ci` reads from a committed table.  A fresh
interpreter runs each Smith path — a wait-time cell, a Backfill
scheduling cell and a :class:`~repro.service.PredictionService` query —
and must end with ``scipy`` absent from ``sys.modules``.

The same run checks the package import rule: package ``__init__``s
resolve their re-exports on first use, so none of these paths loads the
process pool, the TCP server, the campaign journal, the GA search or a
predictor they do not name; nor does ``import repro.cli``.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np

from repro.core.paper_reference import TABLE1_WORKLOADS
from repro.stats import ci

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SMITH_PATHS = """
import sys

from repro.core.experiment import run_scheduling_experiment, run_wait_time_experiment
from repro.core.registry import make_predictor
from repro.predictors.base import PointEstimator
from repro.scheduler.policies import BackfillPolicy
from repro.scheduler.simulator import Simulator
from repro.service import PredictionService, SimulatorFeed
from repro.stats import ci
from repro.workloads.archive import load_paper_workload

trace = load_paper_workload("SDSC96", n_jobs=300)
run_wait_time_experiment(trace, "backfill", "smith")
run_scheduling_experiment(trace, "backfill", "smith")


class Query:
    def __init__(self, svc):
        self.svc = svc
        self.answers = []

    def on_submit(self, view, qj):
        self.answers.append(self.svc.predict(qj.job_id))


sim = Simulator(BackfillPolicy(), PointEstimator(make_predictor("max", trace)), trace.total_nodes)
svc = PredictionService(
    BackfillPolicy(), PointEstimator(make_predictor("smith", trace)), trace.total_nodes
)
sim.add_observer(SimulatorFeed(svc))
query = Query(svc)
sim.add_observer(query)
sim.run(trace)

assert len(query.answers) == len(trace.jobs)
assert ci._T_CACHE, "no t quantile was asked for"
assert {p for _, p in ci._T_CACHE} == {ci._TABLED_P}
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
unused = [
    "multiprocessing", "concurrent.futures", "socketserver",
    "repro.core.parallel", "repro.obs.campaign", "repro.obs.report", "repro.service.server",
    "repro.predictors.ga", "repro.predictors.gibbons", "repro.predictors.downey",
    "repro.predictors.adaptive", "repro.waitpred.manyworlds", "repro.waitpred.statebased",
    "repro.experiments", "repro.metacomputing",
]
assert not [m for m in unused if m in sys.modules], [m for m in unused if m in sys.modules]
"""

_CLI_IMPORT = """
import sys

import repro.cli

pool = [m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules]
assert not pool, pool
"""


def _run_fresh(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_smith_paths_do_not_import_scipy():
    proc = _run_fresh(_SMITH_PATHS)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_does_not_load_the_pool():
    proc = _run_fresh(_CLI_IMPORT)
    assert proc.returncode == 0, proc.stderr


def test_table_covers_largest_table1_trace():
    """Every category of a full-scale Table 1 trace has a tabled df."""
    table = np.load(ci._TABLE_PATH, allow_pickle=False)
    assert table.dtype == np.float64
    assert table.size >= max(n_jobs for _, n_jobs, _ in TABLE1_WORKLOADS.values())
