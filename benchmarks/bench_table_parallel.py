"""Engineering bench — parallel table execution (speedup vs the serial driver).

The paper's tables are grids of independent replay cells;
``run_grid(..., max_workers=N)`` fans them across a process pool
(:mod:`repro.core.parallel`).  This bench runs one reduced-scale
table serially and at 2 and 4 workers, asserts cell-for-cell equality
with the serial result at every width, and emits the measured wall
clocks plus speedups as standard bench JSON.

Cell-equality is asserted at every scale and core count.  The speedup
floor is deliberately modest (>= 2.0x at 4 workers, below the ~3x a
4-core machine reaches) and only armed on runners with at least 4 CPUs
at ``REPRO_BENCH_JOBS >= 500`` — below that, process start-up and trace
regeneration dominate the replay work and the measurement is noise.

A second bench measures the cost of campaign telemetry: the same table
with and without a journaling :class:`~repro.obs.campaign.CampaignTelemetry`
attached, run as back-to-back A/B *pairs* with the inner order
alternating (plain/telem, telem/plain, ...).  The reported overhead is
the **minimum per-pair ratio**: shared-machine noise is correlated in
time, so the quietest pair measures the true cost, while a real
systematic regression lifts every pair and cannot hide.  The bench
asserts bit-identical cells and emits ``overhead_pct``, which
``scripts/check_bench_regression.py`` gates against the committed 3%
budget in ``benchmarks/baselines/table_parallel_300.json``.
"""

from __future__ import annotations

import os
import time

from _common import bench_jobs, emit_bench_json, run_once

from repro.core.parallel import run_grid
from repro.obs.campaign import CampaignTelemetry, check_campaign_journal, read_campaign_journal

WORKLOADS = ("ANL", "CTC", "SDSC95", "SDSC96")
ALGORITHMS = ("lwf", "backfill")
WIDTHS = (2, 4)


def _table(max_workers: int, telemetry=None):
    return run_grid(
        "scheduling",
        workloads=WORKLOADS,
        algorithms=ALGORITHMS,
        predictors=("max",),
        n_jobs=bench_jobs(),
        max_workers=max_workers,
        telemetry=telemetry,
    )


def test_table_parallel_scaling(benchmark):
    timings: dict[int, float] = {}

    def timed(max_workers: int):
        t0 = time.perf_counter()
        cells = _table(max_workers)
        timings[max_workers] = time.perf_counter() - t0
        return cells

    serial = timed(1)
    parallel = {w: timed(w) for w in WIDTHS[:-1]}
    parallel[WIDTHS[-1]] = run_once(benchmark, timed, WIDTHS[-1])

    # Parity is the contract: same cells, same order, any pool width.
    for width, cells in parallel.items():
        assert cells == serial, f"parallel table (width {width}) diverged"

    rows = [
        {
            "workers": width,
            "wall_s": round(timings[width], 3),
            "speedup": round(timings[1] / timings[width], 2)
            if timings[width] > 0
            else float("inf"),
        }
        for width in (1, *WIDTHS)
    ]
    emit_bench_json({"table_parallel": rows})

    print()
    print(f"{'workers':>8} {'wall(s)':>9} {'speedup':>8}")
    for r in rows:
        print(f"{r['workers']:>8} {r['wall_s']:>9.3f} {r['speedup']:>7.2f}x")

    jobs = bench_jobs()
    if (os.cpu_count() or 1) >= 4 and (jobs is None or jobs >= 500):
        best = timings[1] / timings[4]
        assert best >= 2.0, f"4-worker table speedup regressed: {best:.2f}x"


TELEMETRY_WORKERS = 2


def _timed_table(telemetry=None):
    t0 = time.perf_counter()
    cells = _table(TELEMETRY_WORKERS, telemetry)
    return time.perf_counter() - t0, cells


def _overhead_pairs(journal_dir):
    """Run alternating-order A/B pairs; return per-pair walls + cells."""
    pairs: list[tuple[float, float]] = []  # (plain_wall, telem_wall)
    plain_cells = telem_cells = None
    journals = []

    def telemetered():
        journal = os.path.join(journal_dir, f"campaign-{len(journals)}.jsonl")
        journals.append(journal)
        telemetry = CampaignTelemetry(journal)
        try:
            return _timed_table(telemetry)
        finally:
            telemetry.close()

    for order in ("pt", "tp", "pt", "tp"):
        if order == "pt":
            plain_wall, plain_cells = _timed_table()
            telem_wall, telem_cells = telemetered()
        else:
            telem_wall, telem_cells = telemetered()
            plain_wall, plain_cells = _timed_table()
        pairs.append((plain_wall, telem_wall))
    return pairs, plain_cells, telem_cells, journals


def test_table_telemetry_overhead(benchmark, tmp_path):
    pairs, plain_cells, telem_cells, journals = run_once(
        benchmark, _overhead_pairs, str(tmp_path)
    )

    # The probe wraps the cell fn without touching it: results must be
    # bit-identical with telemetry on or off.
    assert telem_cells == plain_cells, "telemetered table diverged from plain run"
    # Every journal written during the bench must replay cleanly.
    for journal in journals:
        stats = check_campaign_journal(read_campaign_journal(journal))
        assert stats["cells_done"] == len(plain_cells)

    # Shared-machine noise is correlated in time, so the quietest
    # back-to-back pair carries the real cost; a systematic regression
    # lifts every pair and survives the min.
    ratios = [telem / plain for plain, telem in pairs if plain > 0]
    overhead_pct = 100.0 * (min(ratios) - 1.0) if ratios else 0.0
    min_plain = min(plain for plain, _ in pairs)
    min_telem = min(telem for _, telem in pairs)

    emit_bench_json(
        {
            "table_parallel_telemetry": {
                "workers": TELEMETRY_WORKERS,
                "plain_wall_s": round(min_plain, 3),
                "telemetry_wall_s": round(min_telem, 3),
                "overhead_pct": round(overhead_pct, 2),
            }
        }
    )

    print()
    print(
        f"telemetry overhead @ {TELEMETRY_WORKERS} workers: "
        f"plain {min_plain:.3f}s, telemetered {min_telem:.3f}s, "
        f"best-pair overhead {overhead_pct:+.2f}%"
    )
