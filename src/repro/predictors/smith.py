"""The paper's run-time predictor (Smith/Foster/Taylor).

Given a set of templates, each completed job is inserted into one
category per template (created on demand, bounded by the template's
maximum history).  To predict a job's run time, every template is applied
to the job; categories that exist and can produce a valid estimate each
offer ``(estimate, confidence interval)``, and **the estimate with the
smallest confidence interval wins** (§2.1 step 2(d)).  That selection
rule is the heart of the technique: specific-but-sparse categories
compete with generic-but-populous ones on the tightness of what they
claim to know.

A job's category keys are computed once: they are cached per job id,
guarded by the identity of the :class:`Job` they were computed for, and
evicted when the job finishes.

An elapsed-conditioned contest runs in two phases.  Categories whose
answer is cheap (a memo hit, a regression, too few points) answer
first, in template order.  The ``mean`` categories that would miss
their memo offer :meth:`~repro.predictors.category.Category.miss_bound`
instead, a lower bound on the half-width the miss would compute; they
are visited in ascending ``(bound, template index)`` order, and once a
bound is strictly greater than the best half-width so far, that
category and every later one is skipped (counted in ``bound_pruned``).
A skipped category's half-width exceeds the winner's, so it could
neither win nor tie.  Candidates compare as ``(half-width, template
index)``, which keeps the first template among equal half-widths, the
rule of a single pass in template order; the winner is always computed
by the category's own statistic, so estimate, interval and source are
those of the full contest to the bit.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.predictors.base import Prediction, RuntimePredictor
from repro.predictors.category import Category
from repro.predictors.templates import Template, default_templates
from repro.workloads.job import Job, Trace

__all__ = ["SmithPredictor"]


class SmithPredictor(RuntimePredictor):
    """Template-set historical predictor with smallest-CI selection."""

    name = "smith"

    def __init__(
        self,
        templates: Iterable[Template] | None = None,
        *,
        confidence: float = 0.90,
    ) -> None:
        tpl = list(templates) if templates is not None else default_templates(None)
        if not tpl:
            raise ValueError("SmithPredictor requires at least one template")
        if not 0 < confidence < 1:
            raise ValueError(f"confidence must be in (0,1), got {confidence}")
        self.templates: tuple[Template, ...] = tuple(tpl)
        # Each template's Prediction.source, built once.
        self._sources: tuple[str, ...] = tuple(t.describe() for t in self.templates)
        self.confidence = confidence
        # Categories keyed by (template index, category key).
        self._categories: dict[tuple[int, tuple], Category] = {}
        # How often each template's category won the smallest-CI contest.
        self._wins: list[int] = [0] * len(self.templates)
        self._misses = 0
        # job_id -> (job, its (template index, category key) pairs).
        self._keys: dict[int, tuple[Job, tuple[tuple[int, tuple], ...]]] = {}

    @classmethod
    def for_trace(cls, trace: Trace, **kwargs) -> "SmithPredictor":
        """A predictor with curated default templates for a trace."""
        has_max = any(j.max_run_time is not None for j in trace)
        return cls(
            default_templates(trace.available_fields, has_max_run_time=has_max),
            **kwargs,
        )

    # ------------------------------------------------------------------
    def _category_keys(self, job: Job) -> tuple[tuple[int, tuple], ...]:
        """``(template index, category key)`` for each template that applies."""
        entry = self._keys.get(job.job_id)
        if entry is not None and entry[0] is job:
            return entry[1]
        keys = []
        for idx, template in enumerate(self.templates):
            key = template.category_key(job)
            if key is not None:
                keys.append((idx, key))
        result = tuple(keys)
        self._keys[job.job_id] = (job, result)
        return result

    def predict(self, job: Job, elapsed: float = 0.0, now: float = 0.0) -> Prediction | None:
        best: tuple[float, int] | None = None  # (interval, idx)
        best_est = 0.0
        confidence = self.confidence
        conditioned = elapsed > 0.0
        categories = self._categories
        pending: list[tuple[float, int, Category]] = []  # (bound, idx, category)
        for full_key in self._category_keys(job):
            cat = categories.get(full_key)
            if cat is None:
                continue
            idx = full_key[0]
            if conditioned:
                bound = cat.miss_bound(job, elapsed, confidence)
                if bound is not None:
                    pending.append((bound, idx, cat))
                    continue
            result = cat.predict(job, elapsed, confidence)
            if result is None:
                continue
            est, hw = result
            if best is None or hw < best[0]:
                best = (hw, idx)
                best_est = est
        # Template indices are distinct, so the sort never compares categories.
        pending.sort()
        for pos, (bound, idx, cat) in enumerate(pending):
            if best is not None and bound > best[0]:
                for skipped in pending[pos:]:
                    skipped[2].bound_pruned += 1
                break
            # A pending mean lookup has at least two points: never None.
            est, hw = cat.predict(job, elapsed, confidence)
            if best is None or (hw, idx) < best:
                best = (hw, idx)
                best_est = est
        if best is None:
            self._misses += 1
            return None
        hw, idx = best
        self._wins[idx] += 1
        return Prediction(estimate=best_est, interval=hw, source=self._sources[idx])

    def on_finish(self, job: Job, now: float) -> None:
        for full_key in self._category_keys(job):
            cat = self._categories.get(full_key)
            if cat is None:
                cat = Category(self.templates[full_key[0]])
                self._categories[full_key] = cat
            cat.add(job)
        del self._keys[job.job_id]

    # ------------------------------------------------------------------
    @property
    def category_count(self) -> int:
        return len(self._categories)

    def usage_stats(self) -> dict[str, int]:
        """Smallest-CI wins per template (plus unserved predictions).

        Diagnostic for template-set tuning: templates that never win are
        dead weight; a large ``(no prediction)`` count signals ramp-up
        or coverage gaps.
        """
        stats = dict(zip(self._sources, self._wins))
        stats["(no prediction)"] = self._misses
        return stats

    def obs_stats(self) -> dict[str, int]:
        """Elapsed-memo tallies summed over the categories.

        ``memo_hits``/``memo_misses`` count elapsed-conditioned lookups
        of memoised category statistics; ``points_scanned`` counts the
        history points the misses scanned; ``bound_pruned`` counts the
        misses the contest skipped because their half-width bound could
        not win.  Folded here, at snapshot time, from plain ints the
        categories keep.
        """
        cats = self._categories.values()
        return {
            "memo_hits": sum(c.memo_hits for c in cats),
            "memo_misses": sum(c.memo_misses for c in cats),
            "points_scanned": sum(c.points_scanned for c in cats),
            "bound_pruned": sum(c.bound_pruned for c in cats),
        }

    def categories_for(self, job: Job) -> Sequence[Category]:
        """Existing categories this job falls into (for inspection/tests)."""
        out = []
        for idx, template in enumerate(self.templates):
            key = template.category_key(job)
            if key is None:
                continue
            cat = self._categories.get((idx, key))
            if cat is not None:
                out.append(cat)
        return out
