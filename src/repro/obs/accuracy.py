"""Online prediction-accuracy monitoring.

The paper's whole contribution is measured in prediction error (run-time
error in §3, wait-time error in Tables 4-9), and follow-up work (TARE,
"the price of misprediction") shows that *mean* error summaries hide the
tail mispredictions that dominate scheduling damage.  The
:class:`AccuracyMonitor` therefore keeps, per ``(kind, predictor)``
group, the full picture of one run's prediction quality:

- mean absolute error and signed bias;
- the under/over-prediction split (an underprediction makes backfill
  overcommit; an overprediction wastes holes);
- exact absolute-error quantiles (p50/p90/p99) and the **tail ratio**
  ``p99 / p50`` — how many times worse the worst percentile is than the
  typical prediction (1.0 = uniform error, large = heavy tail);
- a **drift signal**: the rolling-window MAE over the most recent
  predictions against the run-to-date MAE (``drift_ratio`` > 1 means the
  predictor is currently doing worse than its own history — e.g. the
  workload shifted out from under its templates);
- a per-key drill-down (template/category/fallback source) with count
  and MAE, so a bad aggregate can be traced to the category that
  produced it.

Observations arrive one at a time (streaming) from the audit trail
(:mod:`repro.obs.audit`), or in bulk from a recorded JSONL trace via
:meth:`AccuracyMonitor.from_events`.  Absolute errors are retained
per group (memory is O(predictions), paid only when auditing is on)
so the quantiles are exact, not histogram approximations.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, Mapping

__all__ = [
    "PREDICTION_KINDS",
    "AccuracyMonitor",
    "GroupStats",
]

#: The two prediction kinds the audit trail distinguishes.
PREDICTION_KINDS = ("run_time", "wait_time")

#: Default rolling-window length for the drift signal.
DEFAULT_DRIFT_WINDOW = 200


def _quantile(sorted_values: list[float], q: float) -> float:
    """Exact ``q``-quantile of a non-empty sorted sample.

    Linear between the two order statistics around rank ``q * (n - 1)``,
    written ``lo + (hi - lo) * f`` so that equal neighbours return their
    value exactly: every quantile of a constant sample is its value.
    The run report and the campaign monitor use the same rule.
    """
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    if lo + 1 == len(sorted_values):
        return sorted_values[lo]
    low = sorted_values[lo]
    return low + (sorted_values[lo + 1] - low) * (pos - lo)


class GroupStats:
    """Streaming error statistics for one ``(kind, predictor)`` group."""

    __slots__ = (
        "kind",
        "predictor",
        "n",
        "sum_abs",
        "sum_signed",
        "under",
        "over",
        "exact",
        "window",
        "_abs_errors",
        "_recent",
        "_keys",
    )

    def __init__(self, kind: str, predictor: str, *, window: int) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.kind = kind
        self.predictor = predictor
        self.n = 0
        self.sum_abs = 0.0
        self.sum_signed = 0.0
        self.under = 0  # predicted < actual
        self.over = 0  # predicted > actual
        self.exact = 0
        self.window = window
        self._abs_errors: list[float] = []
        self._recent: deque[float] = deque(maxlen=window)
        #: key -> [n, sum_abs, under, over]
        self._keys: dict[str, list] = {}

    def observe(self, predicted: float, actual: float, key: str | None = None) -> None:
        err = predicted - actual
        abs_err = abs(err)
        self.n += 1
        self.sum_abs += abs_err
        self.sum_signed += err
        if err < 0:
            self.under += 1
        elif err > 0:
            self.over += 1
        else:
            self.exact += 1
        self._abs_errors.append(abs_err)
        self._recent.append(abs_err)
        if key is not None:
            entry = self._keys.get(key)
            if entry is None:
                entry = self._keys[key] = [0, 0.0, 0, 0]
            entry[0] += 1
            entry[1] += abs_err
            entry[2] += 1 if err < 0 else 0
            entry[3] += 1 if err > 0 else 0

    # -- derived metrics -------------------------------------------------
    @property
    def mae(self) -> float:
        return self.sum_abs / self.n if self.n else 0.0

    @property
    def bias(self) -> float:
        """Mean signed error (positive = overprediction on average)."""
        return self.sum_signed / self.n if self.n else 0.0

    @property
    def under_fraction(self) -> float:
        return self.under / self.n if self.n else 0.0

    @property
    def over_fraction(self) -> float:
        return self.over / self.n if self.n else 0.0

    def quantile(self, q: float) -> float | None:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._abs_errors:
            return None
        return _quantile(sorted(self._abs_errors), q)

    @property
    def tail_ratio(self) -> float | None:
        """p99 / p50 of the absolute error, ``None`` when p50 is zero."""
        if not self._abs_errors:
            return None
        ordered = sorted(self._abs_errors)
        p50 = _quantile(ordered, 0.50)
        if p50 <= 0.0:
            return None
        return _quantile(ordered, 0.99) / p50

    @property
    def rolling_mae(self) -> float:
        """MAE over the last ``window`` observations, summed exactly when
        read, so an error that left the window leaves no residue."""
        recent = self._recent
        return math.fsum(recent) / len(recent) if recent else 0.0

    @property
    def drift_ratio(self) -> float | None:
        """Rolling MAE over run-to-date MAE; ``None`` until both exist.

        Values well above 1 flag a predictor whose recent errors exceed
        its whole-run average — history has gone stale.
        """
        if self.n == 0 or self.mae <= 0.0:
            return None
        return self.rolling_mae / self.mae

    def snapshot(self) -> dict:
        """Plain-dict (JSON-serializable) view of every metric."""
        ordered = sorted(self._abs_errors)
        return {
            "kind": self.kind,
            "predictor": self.predictor,
            "n": self.n,
            "mae": self.mae,
            "bias": self.bias,
            "p50": _quantile(ordered, 0.50) if ordered else None,
            "p90": _quantile(ordered, 0.90) if ordered else None,
            "p99": _quantile(ordered, 0.99) if ordered else None,
            "max": ordered[-1] if ordered else None,
            "under_fraction": self.under_fraction,
            "over_fraction": self.over_fraction,
            "tail_ratio": self.tail_ratio,
            "window": self.window,
            "rolling_mae": self.rolling_mae,
            "drift_ratio": self.drift_ratio,
            "keys": {
                key: {
                    "n": n,
                    "mae": sum_abs / n if n else 0.0,
                    "under": under,
                    "over": over,
                }
                for key, (n, sum_abs, under, over) in sorted(self._keys.items())
            },
        }


class AccuracyMonitor:
    """Rolling prediction-accuracy statistics, grouped per predictor.

    ``observe`` is the streaming entry point (the audit trail calls it
    as each prediction resolves); :meth:`from_events` rebuilds a monitor
    offline from the ``prediction_resolved`` events of a recorded JSONL
    trace, which is how ``repro-sched report`` works.  Both paths
    produce identical statistics because the events carry exactly the
    observed values.
    """

    def __init__(self, *, window: int = DEFAULT_DRIFT_WINDOW) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self._groups: dict[tuple[str, str], GroupStats] = {}

    def observe(
        self,
        kind: str,
        predictor: str,
        predicted: float,
        actual: float,
        *,
        key: str | None = None,
    ) -> None:
        if kind not in PREDICTION_KINDS:
            raise ValueError(
                f"unknown prediction kind {kind!r}; expected one of {PREDICTION_KINDS}"
            )
        group = self._groups.get((kind, predictor))
        if group is None:
            group = self._groups[(kind, predictor)] = GroupStats(
                kind, predictor, window=self.window
            )
        group.observe(predicted, actual, key)

    @classmethod
    def from_events(
        cls, events: Iterable[Mapping], *, window: int = DEFAULT_DRIFT_WINDOW
    ) -> "AccuracyMonitor":
        """Rebuild a monitor from ``prediction_resolved`` trace events."""
        monitor = cls(window=window)
        for event in events:
            if event.get("type") != "prediction_resolved":
                continue
            monitor.observe(
                event["kind"],
                event.get("predictor", "?"),
                event["predicted_s"],
                event["actual_s"],
                key=event.get("source"),
            )
        return monitor

    def group(self, kind: str, predictor: str) -> GroupStats | None:
        return self._groups.get((kind, predictor))

    def groups(self) -> list[GroupStats]:
        """All groups, ordered by (kind, predictor)."""
        return [self._groups[k] for k in sorted(self._groups)]

    def __len__(self) -> int:
        return len(self._groups)

    @property
    def total_observations(self) -> int:
        return sum(g.n for g in self._groups.values())

    def snapshot(self) -> dict:
        """JSON-serializable dump of every group's statistics."""
        return {
            "window": self.window,
            "total_observations": self.total_observations,
            "groups": [g.snapshot() for g in self.groups()],
        }
