"""The paper's run-time predictor (Smith/Foster/Taylor).

Given a set of templates, each completed job is inserted into one
category per template (created on demand, bounded by the template's
maximum history).  To predict a job's run time, every template is applied
to the job; categories that exist and can produce a valid estimate each
offer ``(estimate, confidence interval)``, and **the estimate with the
smallest confidence interval wins** (§2.1 step 2(d)).  That selection
rule is the heart of the technique: specific-but-sparse categories
compete with generic-but-populous ones on the tightness of what they
claim to know.  Every interval is built at the paper's 90%,
:data:`~repro.stats.ci.CONFIDENCE`.

A job's categories are resolved once.  Its category keys are cached
per job id, guarded by the identity of the :class:`Job` they were
computed for, and evicted when the job finishes; next to them sits a
``(template index, category, relative scale, is a mean)`` tuple for each
category that exists.  A key without a category records the job's id,
and the tuple is rebuilt only when one of those keys gains its category.

An elapsed-conditioned contest reads each category once.  A ``mean``
category takes one bisection for its qualifying count ``k`` and one
memo read keyed by ``k``; a hit is answered inline, with the
arithmetic of :meth:`~repro.predictors.category.Category.predict`, and
a regression asks its category.  The ``mean`` categories that miss
their memo wait.  A lone miss with no answer to beat is computed at
once: it has nothing to be pruned against.  Otherwise each pending miss
offers :meth:`~repro.predictors.category.Category.half_width_bound`, a
lower bound on the half-width the miss would compute, and they are
visited in ascending ``(bound, template index)`` order; once a bound is
strictly greater than the best half-width so far, that category and
every later one is skipped (counted in ``bound_pruned``).  A bound above
the best cheap answer is skipped before the sort: it would come after
every bound at or below that answer, and the best half-width only falls.  A skipped
category's half-width exceeds the winner's, so it could neither win nor
tie.  Candidates compare as ``(half-width, template index)``, which
keeps the first template among equal half-widths, the rule of a single
pass in template order; the winner is always computed by the category's
own statistic, so estimate, interval and source are those of the full
contest to the bit, and the memo and bound counters are those of a
contest that asked every category through ``miss_bound`` and
``Category.predict``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Sequence

from repro.predictors.base import Prediction, RuntimePredictor
from repro.predictors.category import Category
from repro.predictors.templates import Template, default_templates
from repro.workloads.job import Job, Trace

__all__ = ["SmithPredictor"]


class SmithPredictor(RuntimePredictor):
    """Template-set historical predictor with smallest-CI selection."""

    name = "smith"

    def __init__(self, templates: Iterable[Template] | None = None) -> None:
        tpl = list(templates) if templates is not None else default_templates(None)
        if not tpl:
            raise ValueError("SmithPredictor requires at least one template")
        self.templates: tuple[Template, ...] = tuple(tpl)
        # Each template's Prediction.source, built once.
        self._sources: tuple[str, ...] = tuple(t.describe() for t in self.templates)
        # Categories keyed by (template index, category key).
        self._categories: dict[tuple[int, tuple], Category] = {}
        # How often each template's category won the smallest-CI contest.
        self._wins: list[int] = [0] * len(self.templates)
        self._misses = 0
        # Mean misses the contest skipped on their bound.
        self._bound_pruned = 0
        # job_id -> [job, its (template index, category key) pairs, its
        # resolved contestants or None until the next predict].
        self._keys: dict[int, list] = {}
        # Category key -> ids of jobs resolved while it had no category.
        self._waiting: dict[tuple[int, tuple], set[int]] = {}

    @classmethod
    def for_trace(cls, trace: Trace) -> "SmithPredictor":
        """A predictor with curated default templates for a trace."""
        has_max = any(j.max_run_time is not None for j in trace)
        return cls(default_templates(trace.available_fields, has_max_run_time=has_max))

    # ------------------------------------------------------------------
    def _entry(self, job: Job) -> list:
        """The job's cache entry: ``[job, keys, contestants or None]``."""
        entry = self._keys.get(job.job_id)
        if entry is None or entry[0] is not job:
            keys = []
            for idx, template in enumerate(self.templates):
                key = template.category_key(job)
                if key is not None:
                    keys.append((idx, key))
            entry = self._keys[job.job_id] = [job, tuple(keys), None]
        return entry

    def _category_keys(self, job: Job) -> tuple[tuple[int, tuple], ...]:
        """``(template index, category key)`` for each template that applies."""
        return self._entry(job)[1]

    def _resolve(self, entry: list) -> tuple[tuple[int, Category, float | None, bool], ...]:
        """The job's existing categories as ``(template index, category,
        relative scale, is a mean)``; its missing keys wait for theirs."""
        job = entry[0]
        categories = self._categories
        contestants = []
        for full_key in entry[1]:
            cat = categories.get(full_key)
            if cat is None:
                self._waiting.setdefault(full_key, set()).add(job.job_id)
                continue
            template = cat.template
            # A relative template has no key for a job without a maximum.
            scale = job.max_run_time if template.relative else None
            contestants.append((full_key[0], cat, scale, template.estimator == "mean"))
        resolved = entry[2] = tuple(contestants)
        return resolved

    def predict(self, job: Job, elapsed: float = 0.0, now: float = 0.0) -> Prediction | None:
        entry = self._entry(job)
        contestants = entry[2]
        if contestants is None:
            contestants = self._resolve(entry)
        best_idx = -1  # the leader's template index; -1 before any answer
        best_hw = best_est = 0.0
        if elapsed <= 0.0:
            for idx, cat, _, _ in contestants:
                result = cat.predict(job, elapsed)
                if result is None:
                    continue
                est, hw = result
                if best_idx < 0 or hw < best_hw:
                    best_idx, best_hw, best_est = idx, hw, est
        else:
            # One bisection and one memo read per mean category: a hit is
            # answered here, with Category.predict's arithmetic; a miss
            # waits with its qualifying count.
            pending: list[tuple[int, Category, float | None, int]] = []
            for idx, cat, scale, mean in contestants:
                if mean:
                    run_times = cat._sorted_run_times
                    k = len(run_times) - bisect_left(run_times, elapsed)
                    if k < 2:  # too few points for a variance
                        continue
                    # A mean statistic is never None.
                    stat = cat._memo.get(k)
                    if stat is None:
                        pending.append((idx, cat, scale, k))
                        continue
                    cat.memo_hits += 1
                    est, hw = stat
                    if scale is not None:
                        est *= scale
                        hw *= scale
                    if elapsed > est:
                        est = elapsed
                    if hw < 0.0:
                        hw = 0.0
                else:
                    result = cat.predict(job, elapsed)
                    if result is None:
                        continue
                    est, hw = result
                if best_idx < 0 or hw < best_hw:
                    best_idx, best_hw, best_est = idx, hw, est
            if best_idx < 0 and len(pending) == 1:
                # Nothing to prune against: no bound is worth its cost.
                best_idx, cat, _, _ = pending[0]
                best_est, best_hw = cat.predict(job, elapsed)
            elif pending:
                ranked = []
                pruned = 0
                for idx, cat, scale, k in pending:
                    bound = cat._bounds.get(k)
                    if bound is None:
                        bound = cat.half_width_bound(k)
                    if scale is not None:
                        bound = bound * scale * (1.0 - 1e-12)
                    if best_idx >= 0 and bound > best_hw:
                        # Visited after every bound at or below best_hw,
                        # which can only fall: skipped in any order.
                        pruned += 1
                    else:
                        ranked.append((bound, idx, cat))
                # Template indices are distinct: the sort never compares
                # categories.
                ranked.sort()
                for pos, (bound, idx, cat) in enumerate(ranked):
                    if best_idx >= 0 and bound > best_hw:
                        pruned += len(ranked) - pos
                        break
                    # A pending mean lookup has at least two points: never None.
                    est, hw = cat.predict(job, elapsed)
                    if best_idx < 0 or hw < best_hw or (hw == best_hw and idx < best_idx):
                        best_idx, best_hw, best_est = idx, hw, est
                self._bound_pruned += pruned
        if best_idx < 0:
            self._misses += 1
            return None
        self._wins[best_idx] += 1
        return Prediction(estimate=best_est, interval=best_hw, source=self._sources[best_idx])

    def on_finish(self, job: Job, now: float) -> None:
        categories = self._categories
        for full_key in self._category_keys(job):
            cat = categories.get(full_key)
            if cat is None:
                cat = categories[full_key] = Category(self.templates[full_key[0]])
                # Jobs that were missing this key resolve again.
                for job_id in self._waiting.pop(full_key, ()):
                    waiting = self._keys.get(job_id)
                    if waiting is not None:
                        waiting[2] = None
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
        categories keep (the contest keeps ``bound_pruned`` itself).
        """
        cats = self._categories.values()
        return {
            "memo_hits": sum(c.memo_hits for c in cats),
            "memo_misses": sum(c.memo_misses for c in cats),
            "points_scanned": sum(c.points_scanned for c in cats),
            "bound_pruned": self._bound_pruned,
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
