"""Online prediction-accuracy monitoring (repro.obs.accuracy)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import DEFAULT_DRIFT_WINDOW, AccuracyMonitor, GroupStats
from repro.obs.campaign import CampaignMonitor


def make_group(**kwargs) -> GroupStats:
    kwargs.setdefault("window", DEFAULT_DRIFT_WINDOW)
    return GroupStats("run_time", "smith", **kwargs)


class TestGroupStats:
    def test_mae_bias_and_split(self):
        g = make_group()
        g.observe(10.0, 20.0)  # under by 10
        g.observe(30.0, 20.0)  # over by 10
        g.observe(20.0, 20.0)  # exact
        assert g.n == 3
        assert g.mae == pytest.approx(20.0 / 3.0)
        assert g.bias == pytest.approx(0.0)
        assert g.under == 1 and g.over == 1 and g.exact == 1
        assert g.under_fraction == pytest.approx(1.0 / 3.0)
        assert g.over_fraction == pytest.approx(1.0 / 3.0)

    def test_quantiles_match_numpy(self):
        g = make_group()
        errors = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        for e in errors:
            g.observe(e, 0.0)
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert g.quantile(q) == pytest.approx(
                float(np.percentile(errors, 100.0 * q))
            )

    def test_quantile_edge_cases(self):
        g = make_group()
        assert g.quantile(0.5) is None  # no observations yet
        g.observe(7.0, 0.0)
        assert g.quantile(0.0) == g.quantile(1.0) == 7.0
        with pytest.raises(ValueError, match="quantile"):
            g.quantile(1.5)

    @given(
        value=st.floats(0.0, 1e12, allow_nan=False),
        n=st.integers(1, 30),
        q=st.floats(0.0, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_constant_sample_is_every_quantile(self, value, n, q):
        g = make_group()
        for _ in range(n):
            g.observe(value, 0.0)
        assert g.quantile(q) == value
        for p in (0.5, 0.9, 0.99):
            assert g.quantile(p) == value

    def test_tied_pair_at_p90(self):
        # lo·(1−f) + hi·f would read 189.89999999999998 here.
        g = make_group()
        g.observe(189.9, 0.0)
        g.observe(189.9, 0.0)
        assert g.quantile(0.9) == 189.9

    @given(
        values=st.lists(st.floats(0.0, 1e9, allow_nan=False), min_size=1, max_size=40),
        q=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_campaign_monitor_quantiles_agree(self, values, q):
        """The accuracy monitor and the campaign monitor share one rule."""
        g = make_group()
        m = CampaignMonitor()
        m.observe({"type": "campaign_started", "wall_time": 0.0, "campaign_id": "c",
                   "cells_total": len(values), "max_workers": 1})
        for i, v in enumerate(values):
            g.observe(v, 0.0)
            m.observe({"type": "cell_finished", "wall_time": 1.0, "campaign_id": "c",
                       "cell_index": i, "duration_s": v})
        assert m.duration_quantile(q) == g.quantile(q)
        assert m.median_duration() == g.quantile(0.5)

    def test_tail_ratio(self):
        g = make_group()
        for _ in range(99):
            g.observe(10.0, 0.0)
        g.observe(1000.0, 0.0)  # one heavy-tail misprediction
        assert g.tail_ratio == pytest.approx(
            float(np.percentile([10.0] * 99 + [1000.0], 99)) / 10.0
        )
        assert g.tail_ratio > 1.0

    def test_tail_ratio_none_when_p50_zero(self):
        g = make_group()
        assert g.tail_ratio is None
        g.observe(5.0, 5.0)
        g.observe(5.0, 5.0)
        g.observe(5.0, 5.0)  # all exact: p50 == 0
        assert g.tail_ratio is None

    def test_rolling_mae_and_drift(self):
        g = make_group(window=2)
        g.observe(1.0, 0.0)
        g.observe(1.0, 0.0)
        assert g.drift_ratio == pytest.approx(1.0)  # recent == history
        g.observe(10.0, 0.0)
        g.observe(10.0, 0.0)
        # window holds [10, 10]; run-to-date MAE is 5.5.
        assert g.rolling_mae == pytest.approx(10.0)
        assert g.drift_ratio == pytest.approx(10.0 / 5.5)
        assert g.drift_ratio > 1.0  # predictor currently worse than history

    def test_rolling_mae_forgets_a_large_error_exactly(self):
        # A running sum would cancel the 1s against 1e16 and read 0.0.
        g = make_group(window=2)
        for err in (1e16, 1.0, 1.0):
            g.observe(err, 0.0)
        assert g.rolling_mae == 1.0

    def test_drift_none_without_signal(self):
        g = make_group()
        assert g.drift_ratio is None  # no observations
        g.observe(3.0, 3.0)
        assert g.drift_ratio is None  # zero MAE: ratio undefined

    def test_window_below_one_rejected(self):
        with pytest.raises(ValueError, match="window"):
            make_group(window=0)

    def test_per_key_drilldown(self):
        g = make_group()
        g.observe(10.0, 20.0, key="u/e")
        g.observe(40.0, 20.0, key="u/e")
        g.observe(25.0, 20.0, key="fallback_max")
        g.observe(0.0, 1.0)  # keyless: counted in totals only
        snap = g.snapshot()
        assert snap["keys"]["u/e"] == {"n": 2, "mae": 15.0, "under": 1, "over": 1}
        assert snap["keys"]["fallback_max"]["n"] == 1
        assert snap["n"] == 4

    def test_snapshot_is_json_ready(self):
        import json

        g = make_group()
        g.observe(10.0, 12.0, key="u")
        snap = g.snapshot()
        json.dumps(snap)  # must not raise
        assert snap["kind"] == "run_time"
        assert snap["predictor"] == "smith"
        assert snap["p50"] == snap["p90"] == snap["p99"] == snap["max"] == 2.0


class TestAccuracyMonitor:
    def test_groups_keyed_by_kind_and_predictor(self):
        mon = AccuracyMonitor()
        mon.observe("run_time", "smith", 10.0, 20.0)
        mon.observe("run_time", "max", 100.0, 20.0)
        mon.observe("wait_time", "smith", 5.0, 2.0)
        assert len(mon) == 3
        assert mon.total_observations == 3
        assert [(g.kind, g.predictor) for g in mon.groups()] == [
            ("run_time", "max"),
            ("run_time", "smith"),
            ("wait_time", "smith"),
        ]
        assert mon.group("run_time", "smith").mae == pytest.approx(10.0)
        assert mon.group("wait_time", "max") is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown prediction kind"):
            AccuracyMonitor().observe("walk_time", "smith", 1.0, 2.0)

    def test_window_below_one_rejected(self):
        with pytest.raises(ValueError, match="window"):
            AccuracyMonitor(window=0)

    def test_from_events_matches_streaming(self):
        mon = AccuracyMonitor()
        events = []
        for i, (pred, actual) in enumerate([(10.0, 12.0), (30.0, 25.0), (8.0, 8.0)]):
            mon.observe("run_time", "smith", pred, actual, key="u/e")
            events.append(
                {
                    "type": "prediction_resolved",
                    "wall_time": 0.0,
                    "sim_time": float(i),
                    "job_id": i,
                    "kind": "run_time",
                    "predictor": "smith",
                    "predicted_s": pred,
                    "actual_s": actual,
                    "source": "u/e",
                }
            )
        events.append({"type": "job_submitted", "job_id": 9, "sim_time": 0.0})
        rebuilt = AccuracyMonitor.from_events(events)
        assert rebuilt.snapshot() == mon.snapshot()
