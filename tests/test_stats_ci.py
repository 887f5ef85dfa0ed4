"""Tests for repro.stats.ci: t quantiles, intervals, running moments."""

from __future__ import annotations

import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import ci
from repro.stats.ci import RunningMoments, mean_confidence_interval, t_quantile

#: p = (1 + c) / 2 for the confidence levels c = 0.1, 0.5, 0.8, 0.9, 0.95, 0.99.
_P_LEVELS = (0.55, 0.75, 0.9, 0.95, 0.975, 0.995)


class TestTQuantile:
    def test_median_is_zero(self):
        assert t_quantile(5, 0.5) == pytest.approx(0.0, abs=1e-9)

    def test_symmetry(self):
        assert t_quantile(7, 0.9) == pytest.approx(-t_quantile(7, 0.1))

    def test_known_value(self):
        # t_{0.975} with 10 degrees of freedom is 2.228 (standard tables).
        assert t_quantile(10, 0.975) == pytest.approx(2.228, abs=5e-3)

    def test_heavier_tail_than_normal(self):
        assert t_quantile(3, 0.95) > t_quantile(300, 0.95)

    def test_converges_to_normal(self):
        assert t_quantile(10_000, 0.975) == pytest.approx(1.96, abs=0.01)

    def test_rejects_bad_df(self):
        with pytest.raises(ValueError):
            t_quantile(0, 0.9)

    def test_cached(self):
        assert t_quantile(9, 0.95) == t_quantile(9, 0.95)

    @pytest.mark.parametrize("p", [0.0, 1.0, 1.5, -0.1, math.nan])
    def test_rejects_bad_p(self, monkeypatch, p):
        # scipy would answer nan or inf here; the check runs before the
        # cache, so nothing is computed or stored.
        monkeypatch.setattr(ci, "_T_CACHE", {})
        with pytest.raises(ValueError, match="p must be in"):
            t_quantile(5, p)
        assert ci._T_CACHE == {}

    def test_rejects_full_confidence(self):
        with pytest.raises(ValueError, match="p must be in"):
            mean_confidence_interval([1.0, 2.0, 3.0], confidence=1.0)

    def test_bits_match_scipy_stats(self, monkeypatch):
        """``t_quantile`` returns ``scipy.stats.t.ppf``'s bits (the oracle)."""
        stats = pytest.importorskip("scipy.stats")
        monkeypatch.setattr(ci, "_T_CACHE", {})
        tabled = np.load(ci._TABLE_PATH, allow_pickle=False).size
        for p in _P_LEVELS:
            # The tabled level is checked over the table's whole length.
            dfs = np.arange(1, (tabled if p == ci._TABLED_P else 30_000) + 1)
            want = stats.t.ppf(p, dfs)
            got = np.array([t_quantile(int(df), p) for df in dfs])
            mismatched = dfs[got != want]
            assert mismatched.size == 0, (p, mismatched[:10])

    def test_no_fallback_without_scipy(self, monkeypatch):
        """A host without scipy fails loudly instead of approximating."""
        monkeypatch.setattr(ci, "_T_CACHE", {})
        monkeypatch.setitem(sys.modules, "scipy.special", None)
        with pytest.raises(ImportError):
            t_quantile(5, 0.975)

    def test_tabled_level_without_scipy(self, monkeypatch):
        """The paper's 90% level is read from the table, not SciPy."""
        monkeypatch.setattr(ci, "_T_CACHE", {})
        monkeypatch.setattr(ci, "_table", None)
        monkeypatch.setitem(sys.modules, "scipy.special", None)
        assert t_quantile(10, 0.5 + 0.90 / 2.0).hex() == "0x1.cffd73bfbf61dp+0"
        assert t_quantile(22_884, 0.95).hex() == "0x1.a5197dc5a481bp+0"

    def test_untabled_df_at_tabled_level(self):
        """A df the table does not hold is computed by SciPy."""
        special = pytest.importorskip("scipy.special")
        for df in (2.5, 32_769):
            assert t_quantile(df, 0.95) == float(special.stdtrit(df, 0.95))


#: Sizes on both sides of NumPy's 8-lane unrolled sum and its 128-element
#: pairwise block, plus multi-block sizes.
_SIZES = (2, 3, 7, 8, 9, 15, 16, 17, 127, 128, 129, 255, 256, 257, 1000, 1024, 1031, 3000)


@st.composite
def _samples(draw):
    """Float64 samples with values spanning 1e-9 to 1e7."""
    shape = draw(st.sampled_from(("drawn", "spread", "narrow", "tied", "constant")))
    if shape == "drawn":
        return np.array(draw(st.lists(st.floats(1e-9, 1e7), min_size=2, max_size=40)))
    n = draw(st.sampled_from(_SIZES))
    if shape == "constant":
        return np.full(n, draw(st.floats(1e-9, 1e7)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "tied":
        pool = draw(st.lists(st.floats(1e-9, 1e7), min_size=1, max_size=4))
        return rng.choice(pool, n)
    if shape == "narrow":  # one magnitude, like a category's run times
        return rng.uniform(0.0, 1.0, n) * 10.0 ** draw(st.integers(-9, 7))
    return 10.0 ** rng.uniform(-9.0, 7.0, n)


def _bits(pair):
    return tuple(struct.pack("<d", v) for v in pair)


class TestMeanConfidenceInterval:
    def test_mean_recovered(self):
        m, _ = mean_confidence_interval([2.0, 4.0, 6.0])
        assert m == pytest.approx(4.0)

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([1.0])

    def test_zero_variance_zero_width(self):
        _, hw = mean_confidence_interval([5.0, 5.0, 5.0])
        assert hw == pytest.approx(0.0)

    def test_width_grows_with_spread(self):
        _, tight = mean_confidence_interval([10.0, 10.1, 9.9])
        _, wide = mean_confidence_interval([1.0, 19.0, 10.0])
        assert wide > tight

    def test_prediction_wider_than_mean_ci(self):
        data = [1.0, 2.0, 3.0, 4.0, 5.0]
        _, pred = mean_confidence_interval(data, prediction=True)
        _, mean = mean_confidence_interval(data, prediction=False)
        assert pred > mean

    def test_higher_confidence_wider(self):
        data = [1.0, 3.0, 7.0, 2.0]
        _, w90 = mean_confidence_interval(data, 0.90)
        _, w99 = mean_confidence_interval(data, 0.99)
        assert w99 > w90

    def test_prediction_width_shrinks_slowly_with_n(self):
        # Prediction interval converges to t*s, not 0, as n grows.
        rng = np.random.default_rng(0)
        small = rng.normal(0, 1, 10)
        big = rng.normal(0, 1, 10_000)
        _, hw_big = mean_confidence_interval(big)
        assert hw_big == pytest.approx(1.645, abs=0.1)  # ~z_{0.95} * sigma
        _, hw_small = mean_confidence_interval(small)
        assert hw_small > 0

    @given(_samples(), st.sampled_from((0.5, 0.9, 0.95, 0.99)), st.booleans())
    @settings(max_examples=300)
    def test_property_bits_match_numpy_mean_and_std(self, x, confidence, prediction):
        """The kernel is ``x.mean()`` and ``x.std(ddof=1)`` to the bit."""
        n = x.size
        t = t_quantile(n - 1, 0.5 + confidence / 2.0)
        scale = math.sqrt(1.0 + 1.0 / n) if prediction else math.sqrt(1.0 / n)
        want = _bits((float(x.mean()), t * float(x.std(ddof=1)) * scale))
        assert _bits(mean_confidence_interval(x, confidence, prediction=prediction)) == want
        assert _bits(mean_confidence_interval(x.tolist(), confidence, prediction=prediction)) == want


class TestRunningMoments:
    def test_matches_numpy(self):
        data = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0]
        rm = RunningMoments()
        for x in data:
            rm.add(x)
        assert rm.count == 6
        assert rm.mean == pytest.approx(np.mean(data))
        assert rm.variance == pytest.approx(np.var(data, ddof=1))

    def test_remove_inverts_add(self):
        rm = RunningMoments()
        for x in [2.0, 7.0, 11.0]:
            rm.add(x)
        rm.add(100.0)
        rm.remove(100.0)
        assert rm.count == 3
        assert rm.mean == pytest.approx(np.mean([2.0, 7.0, 11.0]))
        assert rm.variance == pytest.approx(np.var([2.0, 7.0, 11.0], ddof=1))

    def test_remove_to_empty(self):
        rm = RunningMoments()
        rm.add(5.0)
        rm.remove(5.0)
        assert rm.count == 0
        assert rm.mean == 0.0

    def test_remove_from_empty_raises(self):
        with pytest.raises(ValueError):
            RunningMoments().remove(1.0)

    def test_variance_zero_below_two(self):
        rm = RunningMoments()
        rm.add(3.0)
        assert rm.variance == 0.0

    def test_interval_requires_two(self):
        rm = RunningMoments()
        rm.add(1.0)
        with pytest.raises(ValueError):
            rm.interval()

    def test_interval_matches_batch(self):
        data = [1.0, 5.0, 2.0, 8.0]
        rm = RunningMoments()
        for x in data:
            rm.add(x)
        m1, hw1 = rm.interval(0.9)
        m2, hw2 = mean_confidence_interval(data, 0.9)
        assert m1 == pytest.approx(m2)
        assert hw1 == pytest.approx(hw2)

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=50,
        )
    )
    @settings(max_examples=100)
    def test_property_sliding_window_matches_batch(self, values):
        """Adding all then removing the first half equals the second half."""
        half = len(values) // 2
        rm = RunningMoments()
        for x in values:
            rm.add(x)
        for x in values[:half]:
            rm.remove(x)
        rest = values[half:]
        assert rm.count == len(rest)
        assert rm.mean == pytest.approx(np.mean(rest), rel=1e-6, abs=1e-3)
        if len(rest) >= 2:
            assert rm.variance >= 0.0
            assert rm.variance == pytest.approx(
                np.var(rest, ddof=1), rel=1e-4, abs=1.0
            )

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
            min_size=2,
            max_size=30,
        )
    )
    @settings(max_examples=50)
    def test_property_variance_never_negative(self, values):
        rm = RunningMoments()
        for x in values:
            rm.add(x)
        assert rm.variance >= 0.0
        assert rm.std == pytest.approx(math.sqrt(rm.variance))
