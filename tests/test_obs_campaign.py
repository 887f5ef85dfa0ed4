"""Campaign telemetry: monitor, journal, resource capture, kill-safety.

The SIGKILL test runs a real parallel campaign in a subprocess and
kills it mid-run — the acceptance gate for the journal's role as a
checkpoint/resume substrate.
"""

from __future__ import annotations

import io
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.obs.campaign import (
    MIN_STRAGGLER_SAMPLES,
    CampaignCheckError,
    CampaignMonitor,
    CampaignTelemetry,
    CellResources,
    ProgressRenderer,
    capture_resources,
    check_campaign_journal,
    read_campaign_journal,
    resource_probe,
    summarize_campaign,
)
from repro.obs.schema import TraceSchemaError, validate_events


# ----------------------------------------------------------------------
# synthetic event feeds
# ----------------------------------------------------------------------
def _started(t=0.0, total=4, workers=2, cid="c1"):
    return {
        "type": "campaign_started", "wall_time": t, "campaign_id": cid,
        "cells_total": total, "max_workers": workers,
    }


def _dispatched(i, t, cid="c1", **coords):
    return {
        "type": "cell_dispatched", "wall_time": t, "campaign_id": cid,
        "cell_index": i, **coords,
    }


def _finished(i, t, duration, cid="c1", **extra):
    return {
        "type": "cell_finished", "wall_time": t, "campaign_id": cid,
        "cell_index": i, "duration_s": duration, **extra,
    }


def _failed(i, t, cid="c1", error="boom"):
    return {
        "type": "cell_failed", "wall_time": t, "campaign_id": cid,
        "cell_index": i, "error": error,
    }


def _done(t, done, failed=0, cid="c1"):
    return {
        "type": "campaign_finished", "wall_time": t, "campaign_id": cid,
        "cells_done": done, "cells_failed": failed, "duration_s": t,
    }


def _simple_feed():
    return [
        _started(0.0, total=3),
        _dispatched(0, 0.1, workload="ANL", algorithm="lwf", predictor="max"),
        _dispatched(1, 0.1),
        _finished(0, 1.1, 1.0, cpu_s=0.8, max_rss_kb=50_000, pid=11),
        _dispatched(2, 1.1),
        _finished(1, 2.1, 2.0, cpu_s=1.5, max_rss_kb=60_000, pid=12),
        _failed(2, 3.0),
        _done(3.0, done=2, failed=1),
    ]


# ----------------------------------------------------------------------
# resource capture
# ----------------------------------------------------------------------
class TestResources:
    def test_capture_measures_wall_cpu_rss(self):
        probe = resource_probe()
        deadline = time.perf_counter() + 0.05
        while time.perf_counter() < deadline:  # burn a little CPU
            sum(range(1000))
        res = capture_resources(probe)
        assert res.wall_s >= 0.05
        assert res.cpu_s >= 0.0
        assert res.max_rss_kb > 0  # POSIX CI boxes always report RSS
        assert res.pid == os.getpid()

    def test_as_fields_round_trips_into_events(self):
        res = CellResources(wall_s=1.0, cpu_s=0.5, max_rss_kb=1024, pid=42)
        fields = res.as_fields()
        assert fields == {"cpu_s": 0.5, "max_rss_kb": 1024, "pid": 42}


# ----------------------------------------------------------------------
# streaming monitor
# ----------------------------------------------------------------------
class TestMonitor:
    def test_counts_and_completion(self):
        m = CampaignMonitor.from_events(_simple_feed())
        assert m.cells_total == 3
        assert m.cells_done == 2
        assert m.cells_failed == 1
        assert m.cells_remaining == 0
        assert m.finished_wall is not None
        assert m.completed == {0: 1.0, 1: 2.0}
        assert m.failed == {2: "boom"}
        assert m.coords[0] == "ANL/lwf/max"

    def test_throughput_eta_utilization(self):
        m = CampaignMonitor.from_events(_simple_feed()[:-2])  # mid-campaign
        # 2 cells done over 2.1s of campaign time
        assert m.throughput_cells_per_s() == pytest.approx(2 / 2.1)
        # 1 remaining at that rate
        assert m.eta_s() == pytest.approx(2.1 / 2)
        # 3.0s of cell wall time over 2.1s * 2 workers
        assert m.utilization() == pytest.approx(3.0 / (2.1 * 2))
        assert m.worker_busy == {11: 1.0, 12: 2.0}

    def test_quantiles_and_median(self):
        m = CampaignMonitor()
        m.observe(_started(total=10))
        for i, d in enumerate([0.1] * 9 + [10.0]):
            m.observe(_dispatched(i, float(i)))
            m.observe(_finished(i, float(i) + d, d))
        assert m.median_duration() == pytest.approx(0.1)
        assert m.duration_quantile(0.5) <= 0.25
        assert m.duration_quantile(0.99) > 5.0

    def test_one_finished_cell_is_every_quantile(self):
        """Quantiles read the exact durations, not histogram buckets (which
        put a lone 1.0 s cell at p50 0.75, p90 0.95 and p99 0.995 s)."""
        m = CampaignMonitor()
        m.observe(_started(total=2))
        m.observe(_dispatched(0, 0.0))
        m.observe(_dispatched(1, 0.0))
        m.observe(_finished(0, 1.0, 1.0))
        assert [m.duration_quantile(q) for q in (0.5, 0.9, 0.99)] == [1.0, 1.0, 1.0]
        assert m.duration_quantile(0.0) == m.duration_quantile(1.0) == 1.0
        with pytest.raises(ValueError):
            m.duration_quantile(1.5)

    def test_stragglers_need_min_samples(self):
        m = CampaignMonitor()
        m.observe(_started(total=10))
        for i in range(MIN_STRAGGLER_SAMPLES - 1):
            m.observe(_dispatched(i, float(i)))
            m.observe(_finished(i, float(i), 0.1 if i else 99.0))
        assert m.stragglers() == []

    def test_stragglers_finished_and_running(self):
        m = CampaignMonitor()
        m.observe(_started(total=10))
        for i in range(5):
            m.observe(_dispatched(i, float(i)))
            m.observe(_finished(i, float(i) + 0.1, 1.0))
        # a finished cell far beyond 3x median...
        m.observe(_dispatched(5, 5.0))
        m.observe(_finished(5, 15.0, 10.0))
        # ...and a running cell already over the threshold
        m.observe(_dispatched(6, 6.0, workload="CTC", algorithm="lwf",
                              predictor="max"))
        m.observe({"type": "cell_heartbeat", "wall_time": 30.0,
                   "campaign_id": "c1", "cells_done": 6, "cells_running": 1})
        stragglers = m.stragglers()
        assert [s["cell_index"] for s in stragglers] == [5, 6]
        assert stragglers[0]["running"] is False
        assert stragglers[1]["running"] is True
        assert stragglers[1]["cell"] == "CTC/lwf/max"
        assert stragglers[1]["duration_s"] == pytest.approx(24.0)

    def test_non_campaign_events_ignored(self):
        m = CampaignMonitor()
        m.observe({"type": "job_started", "wall_time": 1.0, "job_id": 1,
                   "sim_time": 0.0, "wait_s": 0.0})
        assert m.cells_total == 0 and m.last_wall is None

    def test_snapshot_is_json_serializable(self):
        snap = CampaignMonitor.from_events(_simple_feed()).snapshot()
        parsed = json.loads(json.dumps(snap))
        assert parsed["complete"] is True
        assert parsed["metrics"]["counters"]["campaign.cells_finished"] == 2


# ----------------------------------------------------------------------
# progress rendering
# ----------------------------------------------------------------------
class TestProgress:
    def test_line_reflects_state(self):
        m = CampaignMonitor.from_events(_simple_feed())
        line = ProgressRenderer(io.StringIO()).line_for(m)
        assert "2/3 cells" in line
        assert "1 FAILED" in line

    def test_rate_limit_and_force(self):
        stream = io.StringIO()
        r = ProgressRenderer(stream, min_interval_s=3600.0)
        m = CampaignMonitor.from_events(_simple_feed())
        r.update(m)  # the first render always goes through
        first = stream.getvalue()
        r.update(m)  # inside the interval: dropped
        assert stream.getvalue() == first
        r.update(m, force=True)
        assert len(stream.getvalue()) > len(first)

    def test_finish_terminates_line(self):
        stream = io.StringIO()
        r = ProgressRenderer(stream, min_interval_s=0.0)
        r.finish(CampaignMonitor.from_events(_simple_feed()))
        assert stream.getvalue().endswith("\n")


# ----------------------------------------------------------------------
# telemetry emitter + journal
# ----------------------------------------------------------------------
class TestTelemetry:
    def _run_campaign(self, path):
        with CampaignTelemetry(str(path), heartbeat_s=1e-6) as t:
            t.campaign_started(cells_total=2, max_workers=2)
            t.cell_dispatched(0, workload="ANL",
                              algorithm="lwf", predictor="max")
            t.cell_dispatched(1)
            t.cell_finished(
                0, duration_s=0.5,
                resources=CellResources(0.5, 0.4, 2048, 7),
                workload="ANL", algorithm="lwf", predictor="max",
            )
            t.heartbeat(running=1)
            t.cell_failed(1, error="boom")
            t.campaign_finished()
        return t

    def test_journal_is_schema_valid_and_checkable(self, tmp_path):
        path = tmp_path / "c.jsonl"
        self._run_campaign(path)
        events = read_campaign_journal(str(path), strict=True)
        assert validate_events(events) == len(events)
        stats = check_campaign_journal(events)
        assert stats == {
            "events": len(events), "cells_total": 2,
            "cells_done": 1, "cells_failed": 1,
        }
        assert [e["type"] for e in events][0] == "campaign_started"
        assert events[3]["cpu_s"] == 0.4
        assert events[3]["max_rss_kb"] == 2048

    def test_monitor_tracks_emissions_live(self, tmp_path):
        t = self._run_campaign(tmp_path / "c.jsonl")
        assert t.monitor.cells_done == 1
        assert t.monitor.cells_failed == 1
        assert t.monitor.finished_wall is not None

    def test_no_sink_still_monitors(self):
        with CampaignTelemetry() as t:
            t.campaign_started(cells_total=1, max_workers=1)
            t.cell_dispatched(0)
            t.cell_finished(0, duration_s=0.1)
            t.campaign_finished()
        assert t.monitor.cells_done == 1

    def test_heartbeat_is_rate_limited(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with CampaignTelemetry(str(path), heartbeat_s=3600.0) as t:
            t.campaign_started(cells_total=1, max_workers=1)
            for _ in range(50):
                t.heartbeat(running=1)
        beats = [
            e for e in read_campaign_journal(str(path))
            if e["type"] == "cell_heartbeat"
        ]
        assert len(beats) == 1  # only the first slips through

    def test_first_heartbeat_on_a_just_booted_clock(self, tmp_path):
        """A monotonic clock near its zero point (a host booted ~5 s ago)
        must not swallow the first heartbeat or the first render."""
        now = [5.0]
        stream = io.StringIO()
        progress = ProgressRenderer(stream, min_interval_s=3600.0, clock=lambda: now[0])
        path = tmp_path / "c.jsonl"
        with CampaignTelemetry(
            str(path), heartbeat_s=3600.0, clock=lambda: now[0]
        ) as t:
            t.campaign_started(cells_total=1, max_workers=1)
            for _ in range(3):
                t.heartbeat(running=1)
                now[0] += 1.0
            now[0] += 3600.0
            t.heartbeat(running=1)  # a full interval later: the second beat
            t.campaign_finished()
        events = read_campaign_journal(str(path))
        assert [e["type"] for e in events].count("cell_heartbeat") == 2
        assert events[-1]["duration_s"] == 3603.0  # read from the same clock
        progress.update(CampaignMonitor.from_events(_simple_feed()))
        assert stream.getvalue()  # the first render is drawn

    def test_campaign_ids_are_unique(self):
        assert CampaignTelemetry().campaign_id != CampaignTelemetry().campaign_id

    def test_bad_heartbeat_rejected(self):
        with pytest.raises(ValueError, match="heartbeat_s"):
            CampaignTelemetry(heartbeat_s=0.0)


# ----------------------------------------------------------------------
# offline analysis
# ----------------------------------------------------------------------
class TestJournalAnalysis:
    def test_summarize_builds_cell_manifest(self):
        events = [
            _started(0.0, total=4),
            _dispatched(0, 0.1, workload="ANL", algorithm="lwf",
                        predictor="max"),
            _dispatched(1, 0.1),
            _finished(0, 1.0, 0.9),
            _dispatched(2, 1.0),
            _failed(1, 1.5),
            # cell 2 dispatched but never finished; cell 3 never dispatched
        ]
        summary = summarize_campaign(events)
        assert not summary["complete"]
        assert [c["cell_index"] for c in summary["cells"]["completed"]] == [0]
        assert summary["cells"]["completed"][0]["cell"] == "ANL/lwf/max"
        assert [c["cell_index"] for c in summary["cells"]["failed"]] == [1]
        assert [
            c["cell_index"] for c in summary["cells"]["dispatched_unfinished"]
        ] == [2]

    def test_check_accepts_coherent_journal(self):
        stats = check_campaign_journal(_simple_feed())
        assert stats["cells_done"] == 2 and stats["cells_failed"] == 1

    def test_check_rejects_empty(self):
        with pytest.raises(CampaignCheckError, match="empty"):
            check_campaign_journal([])

    def test_check_rejects_wrong_opening(self):
        with pytest.raises(CampaignCheckError, match="campaign_started"):
            check_campaign_journal([_dispatched(0, 0.1)])

    def test_check_rejects_out_of_range_index(self):
        with pytest.raises(CampaignCheckError, match="outside plan"):
            check_campaign_journal([_started(total=2), _dispatched(5, 0.1)])

    def test_check_rejects_finish_before_dispatch(self):
        with pytest.raises(CampaignCheckError, match="never"):
            check_campaign_journal([_started(total=2), _finished(0, 1.0, 1.0)])

    def test_check_rejects_foreign_campaign_id(self):
        with pytest.raises(CampaignCheckError, match="campaign_id"):
            check_campaign_journal(
                [_started(total=2), _dispatched(0, 0.1, cid="other")]
            )

    def test_check_rejects_incomplete_journal(self):
        with pytest.raises(CampaignCheckError, match="incomplete"):
            check_campaign_journal(
                [_started(total=2), _dispatched(0, 0.1), _finished(0, 1.0, 0.9)]
            )

    def test_check_rejects_tally_mismatch(self):
        with pytest.raises(CampaignCheckError, match="tallies"):
            check_campaign_journal(
                [_started(total=2), _dispatched(0, 0.1),
                 _finished(0, 1.0, 0.9), _done(2.0, done=2)]
            )

    def test_check_rejects_non_campaign_event(self):
        with pytest.raises(CampaignCheckError, match="not a campaign event"):
            check_campaign_journal(
                [_started(total=1),
                 {"type": "span", "wall_time": 0.1, "name": "x",
                  "duration_s": 0.1}]
            )

    def test_check_rejects_cell_retried(self):
        """Cells run once, so the schema has no ``cell_retried`` event."""
        with pytest.raises(CampaignCheckError, match="cell_retried"):
            check_campaign_journal(
                [_started(total=1), _dispatched(0, 0.1),
                 {"type": "cell_retried", "wall_time": 0.5,
                  "campaign_id": "c1", "cell_index": 0, "attempt": 1}]
            )

    def test_torn_tail_dropped_leniently_raised_strictly(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        lines = [json.dumps(e) for e in _simple_feed()]
        path.write_text("\n".join(lines) + "\n" + lines[0][: len(lines[0]) // 2])
        events = read_campaign_journal(str(path))
        assert len(events) == len(lines)
        with pytest.raises(TraceSchemaError, match="not valid JSON"):
            read_campaign_journal(str(path), strict=True)


# ----------------------------------------------------------------------
# kill-safety: the acceptance gate
# ----------------------------------------------------------------------
_KILLED_CAMPAIGN_SCRIPT = """
import sys, time
from repro.core.parallel import ExperimentPlan, execute_cell, run_table_parallel
from repro.obs.campaign import CampaignTelemetry

def cell(spec):
    if spec.workload != "ANL":
        time.sleep(120.0)  # parked until the parent SIGKILLs us
    return execute_cell(spec)

if __name__ == "__main__":
    plan = ExperimentPlan.for_grid(
        "scheduling", predictors=["actual"], workloads=["ANL", "CTC"],
        algorithms=["fcfs"], n_jobs=30,
    )
    telem = CampaignTelemetry(sys.argv[1], heartbeat_s=0.05)
    run_table_parallel(plan, max_workers=2, telemetry=telem, cell_fn=cell)
    telem.close()
"""


class TestKillSafety:
    def test_sigkilled_campaign_journal_replays_exact_cell_sets(self, tmp_path):
        script = tmp_path / "campaign_child.py"
        script.write_text(_KILLED_CAMPAIGN_SCRIPT)
        journal = tmp_path / "killed.jsonl"
        import repro

        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src_dir, env.get("PYTHONPATH", "")])
        )
        proc = subprocess.Popen(
            [sys.executable, str(script), str(journal)], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            # Wait until the quick cell's completion hit the journal —
            # the sink flushes per event, so the line is durable.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if journal.exists() and "cell_finished" in journal.read_text():
                    break
                time.sleep(0.02)
            else:
                pytest.fail("campaign never journaled a finished cell")
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            proc.wait(timeout=30)
            # Reap any stalled pool worker the child left behind.
            subprocess.run(["pkill", "-9", "-f", str(script)], check=False)

        # Whole-line records replay to the exact dispatched/completed sets.
        events = read_campaign_journal(str(journal))
        types = [e["type"] for e in events]
        assert types[0] == "campaign_started"
        assert "campaign_finished" not in types
        summary = summarize_campaign(events)
        assert not summary["complete"]
        completed = {c["cell_index"] for c in summary["cells"]["completed"]}
        unfinished = {
            c["cell_index"] for c in summary["cells"]["dispatched_unfinished"]
        }
        assert completed == {0}  # the ANL cell
        assert unfinished == {1}  # the parked CTC cell
        # The strict gate refuses it, cleanly, as incomplete.
        with pytest.raises(CampaignCheckError, match="incomplete"):
            check_campaign_journal(
                read_campaign_journal(str(journal), strict=True)
            )
