"""Table 11 — scheduling performance with maximum run times.

Also checks the paper's §4 observation that estimate quality has minimal
effect on utilization: utilizations here must track Table 10's.
"""

from __future__ import annotations

from _common import cell_metrics, emit_bench_json, print_paper_table, run_once, scheduling_rows


def _run():
    return scheduling_rows("max"), scheduling_rows("actual")


def test_table11_scheduling_max(benchmark):
    mx, oracle = run_once(benchmark, _run)
    print_paper_table(mx)
    emit_bench_json(
        {"table11": [c.as_row() for c in mx]}, metrics=cell_metrics(mx)
    )

    oracle_by_key = {(c.workload, c.algorithm): c for c in oracle}
    for c in mx:
        ref = oracle_by_key[(c.workload, c.algorithm)]
        # Utilization invariance across predictors (paper §4).
        assert abs(c.utilization_percent - ref.utilization_percent) < 6.0
    # Where waits are substantial the oracle generally wins; on the
    # near-idle workloads sub-minute differences are noise (the paper
    # itself reports one cell where maxima win by 6%).  Claim only the
    # loaded cells: among cells whose oracle wait exceeds 5 minutes,
    # maxima must be no better than ~oracle in the majority, and the
    # high-load workload's backfill must be strictly worse.
    loaded = [
        (c, oracle_by_key[(c.workload, c.algorithm)])
        for c in mx
        if oracle_by_key[(c.workload, c.algorithm)].mean_wait_minutes > 5.0
    ]
    assert loaded, "expected at least one loaded cell"
    worse = [c.mean_wait_minutes >= 0.94 * ref.mean_wait_minutes for c, ref in loaded]
    assert sum(worse) >= (len(worse) + 1) // 2
    anl_bf = {c.algorithm: c for c in mx if c.workload == "ANL"}["Backfill"]
    anl_bf_oracle = oracle_by_key[("ANL", "Backfill")]
    assert anl_bf.mean_wait_minutes > anl_bf_oracle.mean_wait_minutes
