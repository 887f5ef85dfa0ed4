"""Engineering bench — replay-engine hot path (events/sec, pass cost, speedup).

Measures the optimized :class:`repro.scheduler.Simulator` replaying each
paper workload under FCFS, LWF and conservative backfill with the
scheduler running on user maxima (the paper's §3 configuration), and the
optimized engine against the pre-overhaul
:class:`repro.scheduler.reference.ReferenceSimulator` on the backfill
replay — the policy whose per-pass full-queue replan dominated the old
profile.

Reported per cell:

- wall-clock seconds for the full replay,
- events/sec (SUBMIT + FINISH events drained per second),
- mean pass cost (wall seconds / scheduling passes).

A third test measures the cost of full JSONL event tracing
(``repro.obs``) — and of tracing plus the prediction audit trail —
against the default disabled mode, asserting schedule equality across
all three arms.

Scale follows the suite convention: ``REPRO_BENCH_JOBS`` jobs per
workload (default 1000, ``0`` = full paper sizes from Table 1).  Set
``REPRO_HOTPATH_JSON=/path/out.json`` to also write the measurements as
JSON (used by ``scripts/profile_hotpath.py`` comparisons and the CI
smoke job); otherwise the JSON goes to stdout.

The speedup assertion is deliberately modest (>= 1.5x, far below the
observed margin) and only enforced at ``REPRO_BENCH_JOBS >= 500`` —
tiny replays are dominated by constant costs and timing noise.
Schedule equality between the two engines is asserted at every scale;
the exhaustive equivalence gate lives in ``tests/test_simulator_parity.py``.
"""

from __future__ import annotations

import os
import time

from _common import WORKLOAD_ORDER, bench_jobs, bench_trace, emit_bench_json, run_once

from repro.core.registry import make_predictor
from repro.obs import Instrumentation, JsonlSink, Tracer, merge_snapshots
from repro.predictors.base import PointEstimator
from repro.scheduler.policies import BackfillPolicy, FCFSPolicy, LWFPolicy
from repro.scheduler.reference import ReferenceBackfillPolicy, ReferenceSimulator
from repro.scheduler.simulator import Simulator

POLICIES = (FCFSPolicy, LWFPolicy, BackfillPolicy)


def _replay(engine_cls, policy, trace, instrumentation=None):
    """Run one replay; return (result, wall_seconds, simulator)."""
    kwargs = {}
    est_kwargs = {}
    if instrumentation is not None:
        kwargs["instrumentation"] = instrumentation
        est_kwargs["instrumentation"] = instrumentation
    sim = engine_cls(
        policy,
        PointEstimator(make_predictor("max", trace), **est_kwargs),
        trace.total_nodes,
        **kwargs,
    )
    t0 = time.perf_counter()
    result = sim.run(trace)
    return result, time.perf_counter() - t0, sim


def _cell(workload: str, policy_cls) -> tuple[dict, dict]:
    trace = bench_trace(workload)
    result, wall, sim = _replay(Simulator, policy_cls(), trace)
    snapshot = sim.metrics_snapshot()
    events = snapshot["counters"]["sim.events_processed"]
    passes = snapshot["counters"]["sim.schedule_passes"]
    cell = {
        "workload": workload,
        "policy": policy_cls.name,
        "jobs": len(result.records),
        "wall_s": wall,
        "events_per_s": events / wall if wall > 0 else float("inf"),
        "passes": passes,
        "pass_cost_us": wall / max(passes, 1) * 1e6,
    }
    return cell, snapshot


def test_hotpath_throughput(benchmark):
    """Events/sec and pass cost across workloads x policies (optimized engine)."""
    measured = [_cell(w, p) for w in WORKLOAD_ORDER for p in POLICIES]
    cells = [c for c, _ in measured]
    # pytest-benchmark wants one timed callable; re-time the heaviest
    # cell (full backfill replay of the largest workload measured).
    heaviest = max(
        (c for c in cells if c["policy"] == "Backfill"), key=lambda c: c["wall_s"]
    )
    trace = bench_trace(heaviest["workload"])
    run_once(benchmark, _replay, Simulator, BackfillPolicy(), trace)

    print()
    header = f"{'workload':<8} {'policy':<9} {'jobs':>6} {'wall(s)':>8} {'events/s':>10} {'passes':>7} {'us/pass':>9}"
    print(header)
    for c in cells:
        print(
            f"{c['workload']:<8} {c['policy']:<9} {c['jobs']:>6} "
            f"{c['wall_s']:>8.3f} {c['events_per_s']:>10.0f} "
            f"{c['passes']:>7} {c['pass_cost_us']:>9.1f}"
        )
    _emit_json(
        {"throughput": cells},
        metrics=merge_snapshots(*(snap for _, snap in measured)),
    )
    assert all(c["jobs"] > 0 for c in cells)


def test_hotpath_tracing_overhead(benchmark):
    """Full JSONL tracing vs. the default disabled mode, backfill replay.

    Not asserted against a budget — tracing is allowed to cost what it
    costs (it writes a line per decision).  What *is* asserted is that
    tracing never changes the schedule.  The <2% budget applies to the
    disabled mode and is checked across commits by comparing the
    ``test_hotpath_throughput`` numbers against the previous baseline.
    """
    rows = []
    for workload in WORKLOAD_ORDER:
        trace = bench_trace(workload)
        res_plain, wall_plain, _ = _replay(Simulator, BackfillPolicy(), trace)
        with open(os.devnull, "w", encoding="utf-8") as devnull:
            sink = JsonlSink(devnull)
            res_traced, wall_traced, _ = _replay(
                Simulator,
                BackfillPolicy(),
                trace,
                instrumentation=Instrumentation(tracer=Tracer(sink)),
            )
        assert res_traced.records == res_plain.records
        # Third arm: tracing + the prediction audit trail (the report
        # pipeline's configuration).  Also must not change the schedule.
        with open(os.devnull, "w", encoding="utf-8") as devnull:
            audit_sink = JsonlSink(devnull)
            res_audited, wall_audited, _ = _replay(
                Simulator,
                BackfillPolicy(),
                trace,
                instrumentation=Instrumentation(
                    tracer=Tracer(audit_sink), audit=True
                ),
            )
        assert res_audited.records == res_plain.records
        rows.append(
            {
                "workload": workload,
                "jobs": len(res_plain.records),
                "plain_s": wall_plain,
                "traced_s": wall_traced,
                "audited_s": wall_audited,
                "events_written": sink.events_written,
                "audit_events_written": audit_sink.events_written,
                "overhead_pct": 100.0 * (wall_traced / wall_plain - 1.0)
                if wall_plain > 0
                else 0.0,
                "audit_overhead_pct": 100.0 * (wall_audited / wall_plain - 1.0)
                if wall_plain > 0
                else 0.0,
            }
        )
    trace = bench_trace(WORKLOAD_ORDER[0])
    run_once(benchmark, _replay, Simulator, BackfillPolicy(), trace)

    print()
    print(f"{'workload':<8} {'jobs':>6} {'plain(s)':>9} {'traced(s)':>10} {'audited(s)':>11} {'events':>8} {'overhead':>9} {'audit ovh':>10}")
    for r in rows:
        print(
            f"{r['workload']:<8} {r['jobs']:>6} {r['plain_s']:>9.3f} "
            f"{r['traced_s']:>10.3f} {r['audited_s']:>11.3f} "
            f"{r['events_written']:>8} {r['overhead_pct']:>8.1f}% "
            f"{r['audit_overhead_pct']:>9.1f}%"
        )
    _emit_json({"tracing_overhead": rows})


def test_hotpath_provenance_overhead(benchmark):
    """Decision-provenance tracing vs. plain tracing, backfill replay.

    Provenance mode adds binding attribution, hole tracking and
    change-only emission to the policies' selection walks, on top
    of ordinary tracing; this arm measures that increment per workload
    — both sides write JSONL to the null device, only ``provenance``
    differs — and asserts schedule identity on every pair.  Following
    the telemetry-overhead bench, each workload runs four back-to-back
    A/B pairs with alternating inner order and reports the *minimum*
    per-pair ratio (the quietest pair carries the real cost; a
    systematic regression lifts every pair).

    The committed baseline
    (``benchmarks/baselines/hotpath_provenance_300.json``) gates the
    <= 3% budget on the lowest-churn replay (SDSC95) via
    ``scripts/check_bench_regression.py``.  Provenance cost is
    proportional to reservation churn — every ``reservation_binding``
    and ``backfill_hole_used`` event is one more encoded JSONL line —
    so the high-churn workloads cost more (ANL replans its deep queue
    almost every pass and runs ~10-15% over plain tracing; the SDSC
    workloads ~2-6%); their rows are emitted as context but carry no
    budget.  What the gated workload pins is the *bookkeeping* floor:
    attribution work is deferred to the passes that actually move a
    reservation, so a replay that moves few stays within the budget,
    and a regression on the every-pass path (the lazy-attribution
    design breaking) lifts it out.
    """
    rows = []
    for workload in WORKLOAD_ORDER:
        trace = bench_trace(workload)

        def run_traced(provenance: bool):
            with open(os.devnull, "w", encoding="utf-8") as devnull:
                sink = JsonlSink(devnull)
                res, wall, _ = _replay(
                    Simulator,
                    BackfillPolicy(),
                    trace,
                    instrumentation=Instrumentation(
                        tracer=Tracer(sink), provenance=provenance
                    ),
                )
            return res, wall, sink.events_written

        run_traced(False)  # warm caches outside the measurement
        run_traced(True)
        ratios = []
        events_plain = events_prov = 0
        for i in range(4):
            if i % 2 == 0:
                res_plain, wall_plain, events_plain = run_traced(False)
                res_prov, wall_prov, events_prov = run_traced(True)
            else:
                res_prov, wall_prov, events_prov = run_traced(True)
                res_plain, wall_plain, events_plain = run_traced(False)
            assert res_prov.records == res_plain.records
            ratios.append(wall_prov / wall_plain if wall_plain > 0 else 1.0)
        assert events_prov > events_plain
        rows.append(
            {
                "workload": workload,
                "jobs": len(trace.jobs),
                "events_plain": events_plain,
                "events_provenance": events_prov,
                "provenance_events": events_prov - events_plain,
                "overhead_pct": 100.0 * (min(ratios) - 1.0),
            }
        )
    trace = bench_trace("SDSC95")
    run_once(benchmark, _replay, Simulator, BackfillPolicy(), trace)

    print()
    print(
        f"{'workload':<8} {'jobs':>6} {'events':>7} {'+prov':>6} {'overhead':>9}"
    )
    for r in rows:
        print(
            f"{r['workload']:<8} {r['jobs']:>6} {r['events_plain']:>7} "
            f"{r['provenance_events']:>6} {r['overhead_pct']:>8.1f}%"
        )
    _emit_json({"provenance_tracing": rows})


def test_hotpath_speedup_vs_reference(benchmark):
    """Optimized vs. reference engine on the backfill replay, per workload."""
    rows = []
    for workload in WORKLOAD_ORDER:
        trace = bench_trace(workload)
        res_opt, wall_opt, _ = _replay(Simulator, BackfillPolicy(), trace)
        res_ref, wall_ref, _ = _replay(
            ReferenceSimulator, ReferenceBackfillPolicy(), trace
        )
        # Speedup without sameness is meaningless — gate it here too.
        assert res_opt.records == res_ref.records
        rows.append(
            {
                "workload": workload,
                "jobs": len(res_opt.records),
                "optimized_s": wall_opt,
                "reference_s": wall_ref,
                "speedup": wall_ref / wall_opt if wall_opt > 0 else float("inf"),
            }
        )
    trace = bench_trace(WORKLOAD_ORDER[0])
    run_once(benchmark, _replay, Simulator, BackfillPolicy(), trace)

    print()
    print(f"{'workload':<8} {'jobs':>6} {'optimized(s)':>13} {'reference(s)':>13} {'speedup':>8}")
    for r in rows:
        print(
            f"{r['workload']:<8} {r['jobs']:>6} {r['optimized_s']:>13.3f} "
            f"{r['reference_s']:>13.3f} {r['speedup']:>7.1f}x"
        )
    _emit_json({"speedup": rows})

    jobs = bench_jobs()
    if jobs is None or jobs >= 500:
        worst = min(r["speedup"] for r in rows)
        assert worst >= 1.5, f"backfill replay speedup regressed: {worst:.2f}x"


def _emit_json(payload: dict, *, metrics: dict | None = None) -> None:
    # Kept as a local name so the historical REPRO_HOTPATH_JSON contract
    # survives the move of the machinery into _common.emit_bench_json.
    emit_bench_json(payload, metrics=metrics, env_var="REPRO_HOTPATH_JSON")
