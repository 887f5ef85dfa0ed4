"""Conservative backfill.

The paper's backfill (§2.1) is the conservative variant: the scheduler
walks the queue in arrival order; a job that fits *and* would not delay
any job ahead of it starts immediately, and every job that cannot start
is given a reservation at the earliest time the availability profile
admits it.  Reservations exist only to protect earlier arrivals from
later ones — a reserved job may still start before its reservation when
jobs finish early, because the whole profile is rebuilt from the
*current* estimates after every finish (a pass that follows only new
submissions, under estimates that do not change as a job runs, extends
the plan it kept instead; see Hot path below).

The availability profile is a step function of free nodes over future
time, seeded from the estimated remaining run times of the running jobs.
Estimate quality therefore matters much more here than for LWF: a hole in
the profile is only as real as the estimates that shaped it (§4).

Hot path
--------
Three exact shortcuts apply:

- **Seeding** reads every running job's release from one
  ``view.releases()`` call (no per-job ``remaining`` method call),
  batches the releases through :meth:`AvailabilityProfile.rebuild`
  (sort once, build the step arrays in one append-only sweep) instead
  of one O(n) ``list.insert`` per release, and reuses one scratch
  profile object across passes.
- **Early exit**: reservations carved for jobs that cannot start are
  discarded at the end of the pass, so the walk may stop as soon as no
  remaining job can start *now*.  Free nodes at ``now`` only shrink as
  the walk carves, so once they drop below the minimum node request of
  the remaining queue suffix, no later job can have an earliest start of
  ``now`` — the selected set is provably unchanged.
- **Kept plan**: with an estimate that does not change as a job runs,
  only a finish can move a reservation earlier.  The untraced walk keeps
  its profile, the number of queued jobs it reserved and the view's
  ``plan_stamp``; a later pass with the same stamp (same simulator, no
  finish or reservation event since, same estimator epoch, no advance
  reservation pending or waiting) whose earliest kept breakpoint after
  the origin is above ``now + MIN_DURATION`` moves the origin to
  ``now`` and resumes the walk over the queue tail the plan has not
  reserved — normally just the new arrivals.  This is exact because a
  running job's release, ``max(start + est, now + MIN_DURATION)``, does
  not depend on ``now`` until the job is overdue: a fresh seed at the
  later instant is the kept step function with a new origin (a job the
  plan started at ``t1`` was carved over ``[t1, t1 + d)``, and ``t1 +
  d`` is exactly its later release), and re-reserving the kept prefix
  in it lands every job on the anchor it already holds.  The stamp
  names the simulator, so a pass from any other simulator sharing the
  policy instance replans (and re-keys the plan); the wait-time
  experiment gives its observer's forward simulations a policy of
  their own, so the live replay's plan survives its queries.

Each queued job then costs one :meth:`AvailabilityProfile.reserve`,
which holds the profile's only feasibility scan and carves in place
with no inner call.  All of it is equivalence-gated by
``tests/test_simulator_parity.py`` and
``tests/test_properties_kept_plan.py`` against the reference engine in
:mod:`repro.scheduler.reference`, which replans every pass.
"""

from __future__ import annotations

import bisect
import math
from itertools import islice, repeat
from operator import itemgetter
from typing import Sequence

import numpy as np

from repro.scheduler.policies.base import (
    MIN_DURATION,
    Policy,
    report_blocker,
    running_ids,
)

__all__ = ["AvailabilityProfile", "BatchAvailabilityProfile", "BackfillPolicy"]


# Hoisted iterators for the C-speed provenance seed in
# ProfilePolicy._seed_origin: release-time extractor and an endless
# supply of the "running_job" tag (itertools.repeat is stateless, so the
# shared instance is safe to re-zip every pass).
_RELEASE_TIME = itemgetter(0)
_RUNNING_JOB_TAGS = repeat("running_job")
_UNKNOWN_BINDING = ("unknown", None)


class AvailabilityProfile:
    """Free-node count as a step function of time.

    Maintained as parallel arrays ``times`` / ``free`` where ``free[i]``
    holds on ``[times[i], times[i+1])`` and the last segment extends to
    infinity.  Supports the operations backfill needs: find the earliest
    start for an ``(nodes, duration)`` request, carve a committed
    allocation out of the profile — or both at once via :meth:`reserve`,
    which finds and carves in a single walk — plus bulk construction
    from a batch of releases (:meth:`rebuild` / :meth:`from_releases`)
    and, for in-order planning, :meth:`close_before`.
    """

    __slots__ = ("total_nodes", "times", "free")

    def __init__(self, start_time: float, free_nodes: int, total_nodes: int) -> None:
        if not 0 <= free_nodes <= total_nodes:
            raise ValueError(
                f"free_nodes {free_nodes} outside [0, {total_nodes}]"
            )
        self.total_nodes = total_nodes
        self.times: list[float] = [start_time]
        self.free: list[int] = [free_nodes]

    @classmethod
    def from_releases(
        cls,
        start_time: float,
        free_nodes: int,
        total_nodes: int,
        releases: Sequence[tuple[float, int]],
    ) -> "AvailabilityProfile":
        """Profile seeded from ``(time, nodes)`` release pairs in one sweep."""
        profile = cls(start_time, free_nodes, total_nodes)
        profile.rebuild(start_time, free_nodes, releases)
        return profile

    def rebuild(
        self,
        start_time: float,
        free_nodes: int,
        releases: Sequence[tuple[float, int]],
    ) -> None:
        """Reset to ``free_nodes`` at ``start_time`` and apply ``releases``.

        Equivalent to a fresh profile plus one :meth:`add_release` per
        pair, but append-then-merge: the releases are sorted once and the
        step arrays built left to right with no mid-list inserts —
        O(n log n) for n releases instead of O(n²).  Reusing the same
        profile object across scheduling passes also recycles the arrays.
        """
        if not 0 <= free_nodes <= self.total_nodes:
            raise ValueError(
                f"free_nodes {free_nodes} outside [0, {self.total_nodes}]"
            )
        times = self.times
        free = self.free
        times.clear()
        free.clear()
        times.append(start_time)
        free.append(free_nodes)
        if not releases:
            return
        total = self.total_nodes
        current = free_nodes
        for time, nodes in sorted(releases):
            if nodes <= 0:
                raise ValueError(f"release of {nodes} nodes")
            current += nodes
            if current > total:
                raise RuntimeError("availability profile exceeds machine capacity")
            if time <= start_time:
                # Releases at/before the origin fold into the first step.
                for i in range(len(free)):
                    free[i] += nodes
                continue
            if time == times[-1]:
                free[-1] = current
            else:
                times.append(time)
                free.append(current)

    def add_release(self, time: float, nodes: int) -> None:
        """Record ``nodes`` becoming free at ``time`` (a running job ending)."""
        if nodes <= 0:
            raise ValueError(f"release of {nodes} nodes")
        time = max(time, self.times[0])
        i = self._ensure_breakpoint(time)
        for j in range(i, len(self.free)):
            self.free[j] += nodes
            if self.free[j] > self.total_nodes:
                raise RuntimeError("availability profile exceeds machine capacity")

    def _ensure_breakpoint(self, time: float) -> int:
        """Insert a breakpoint at ``time`` if absent; return its index."""
        i = bisect.bisect_left(self.times, time)
        if i < len(self.times) and self.times[i] == time:
            return i
        if i == 0:
            raise ValueError(f"time {time} precedes profile start {self.times[0]}")
        self.times.insert(i, time)
        self.free.insert(i, self.free[i - 1])
        return i

    def earliest_start(self, nodes: int, duration: float) -> float:
        """Earliest time ``nodes`` nodes stay free for ``duration``.

        Always a segment start; always succeeds inside the backfill
        policy because the final segment has all running jobs finished.
        """
        return self.reserve(nodes, duration, carve=False)

    def reserve(self, nodes: int, duration: float, *, carve: bool = True) -> float:
        """Find the earliest start and carve it, in one walk.

        Exactly equivalent to ``start = earliest_start(...)`` followed by
        ``carve(start, duration, nodes)``, but the carve reuses the
        feasibility scan's segment indices instead of re-bisecting, and
        skips the overcommit re-checks the scan already guarantees.  The
        profile's only feasibility scan: :meth:`earliest_start` is this
        walk with ``carve=False``.
        """
        if nodes > self.total_nodes:
            raise ValueError(
                f"request for {nodes} nodes exceeds machine size {self.total_nodes}"
            )
        if not duration >= 0:
            raise ValueError(f"duration {duration} is negative or NaN")
        times = self.times
        free = self.free
        n = len(times)
        i = 0
        while i < n:
            if free[i] < nodes:
                i += 1
                continue
            anchor = times[i]
            end = anchor + duration
            j = i + 1
            while j < n and times[j] < end:
                if free[j] < nodes:
                    # Restart after the violation — nothing between can
                    # host the anchor.
                    i = j + 1
                    break
                j += 1
            else:
                break  # [anchor, end) fits over segments i..j-1
        else:
            raise RuntimeError("no feasible start found (profile never clears)")
        if not carve or end == anchor:
            # A query, a zero duration, or a positive one that underflows
            # at the anchor's magnitude: no segment loses nodes.
            return anchor
        if math.isfinite(end):
            if j >= n or times[j] != end:
                times.insert(j, end)
                free.insert(j, free[j - 1])
        else:
            j = len(times)
        for k in range(i, j):
            free[k] -= nodes
        return anchor

    def close_before(self, time: float) -> None:
        """Drop the profile before breakpoint ``time``.

        In-order planning (FCFS) calls this after each reservation with
        that reservation's start, so the next search cannot place a job
        before the one ahead of it.  Raises :class:`ValueError` when
        ``time`` is not a breakpoint.
        """
        times = self.times
        i = bisect.bisect_left(times, time)
        if i == len(times) or times[i] != time:
            raise ValueError(f"time {time} is not a profile breakpoint")
        del times[:i]
        del self.free[:i]

    def carve(
        self, start: float, duration: float, nodes: int, *, clamp: bool = False
    ) -> None:
        """Commit an allocation of ``nodes`` over ``[start, start+duration)``.

        With ``clamp=True`` free counts floor at zero instead of raising
        — used for advance reservations, whose windows may conflict with
        the *estimated* occupancy of running jobs without being wrong
        (estimates are beliefs; the reservation will simply wait).
        """
        if not duration > 0:
            if duration <= 0:
                return
            raise ValueError(f"duration {duration} is NaN")
        end = start + duration
        i = self._ensure_breakpoint(start)
        j = self._ensure_breakpoint(end) if math.isfinite(end) else len(self.times)
        for k in range(i, j):
            self.free[k] -= nodes
            if self.free[k] < 0:
                if clamp:
                    self.free[k] = 0
                else:
                    raise RuntimeError("profile carve went negative: overcommitted")

    def free_at(self, time: float) -> int:
        """Free nodes at ``time`` (for tests/inspection)."""
        i = bisect.bisect_right(self.times, time) - 1
        if i < 0:
            raise ValueError(f"time {time} precedes profile start")
        return self.free[i]


class BatchAvailabilityProfile:
    """``S`` availability profiles advanced in lock-step (sample axis first).

    The many-worlds Monte-Carlo engine (:mod:`repro.waitpred.manyworlds`)
    forward-plans the same queue over hundreds of sampled run-time
    worlds.  Each world's free-node step function differs — the sampled
    durations shift every breakpoint — but the *sequence of operations*
    is identical: seed from the running jobs' releases, then reserve one
    queued job at a time.  This class stores the step functions as
    padded structure-of-arrays state

    - ``times``  — ``(S, M)`` float64, breakpoint instants per world,
      strictly increasing over each world's first ``count[s]`` columns
      and padded with ``+inf``;
    - ``free``   — ``(S, M)`` int64, free nodes on ``[times[i], times[i+1])``
      (padding columns hold ``total_nodes`` so they can never look like
      capacity violations);
    - ``count``  — ``(S,)`` live-segment counts,

    so one :meth:`reserve` call finds *and carves* the earliest feasible
    slot in every world at once with a handful of vectorized array
    passes instead of ``S`` Python scans.

    Semantics are bit-identical to running ``S`` independent scalar
    :class:`AvailabilityProfile` objects through the same call sequence:
    the feasibility rule, anchor arithmetic (``end = anchor + duration``
    in float64), duplicate-breakpoint merging, and the degenerate
    ``end == anchor`` underflow behaviour all mirror the scalar code
    path, and ``tests/test_waitpred_manyworlds.py`` property-tests the
    equivalence operation by operation.
    """

    __slots__ = (
        "total_nodes",
        "n_worlds",
        "times",
        "free",
        "count",
        "_scr_tmp",
        "_scr_f",
        "_scr_b",
        "_scr_b2",
        "_rows",
    )

    def __init__(
        self,
        start_time: float,
        free_nodes: int,
        total_nodes: int,
        n_worlds: int,
        *,
        capacity: int | None = None,
    ) -> None:
        if not 0 <= free_nodes <= total_nodes:
            raise ValueError(f"free_nodes {free_nodes} outside [0, {total_nodes}]")
        if n_worlds < 1:
            raise ValueError(f"n_worlds must be >= 1, got {n_worlds}")
        self.total_nodes = total_nodes
        self.n_worlds = n_worlds
        width = max(1, capacity or 0)
        self.times = np.full((n_worlds, width), np.inf)
        self.free = np.full((n_worlds, width), total_nodes, dtype=np.int64)
        self.times[:, 0] = float(start_time)
        self.free[:, 0] = int(free_nodes)
        self.count = np.ones(n_worlds, dtype=np.int64)
        self._drop_scratch()

    def _drop_scratch(self) -> None:
        """Invalidate capacity-shaped scratch state (lazily rebuilt)."""
        self._scr_tmp = None
        self._scr_f = None
        self._scr_b = None
        self._scr_b2 = None
        self._rows = np.arange(self.n_worlds)

    @classmethod
    def from_releases(
        cls,
        start_time: float,
        free_nodes: int,
        total_nodes: int,
        release_times: np.ndarray,
        release_nodes: np.ndarray,
        *,
        capacity: int | None = None,
    ) -> "BatchAvailabilityProfile":
        """Profiles seeded from per-world release times in one sweep.

        ``release_times`` is ``(S, R)`` — release ``r`` happens at a
        different instant in each world — while ``release_nodes`` is
        ``(R,)``: the node counts are world-invariant (they come from
        the same running jobs).  Semantically mirrors
        :meth:`AvailabilityProfile.rebuild`, including the fold of
        releases at/before the origin into the first step; equal-time
        releases are kept as zero-width twin columns that each carry
        the run's cumulative total, a refinement of the scalar
        profile's merged step function that leaves every query — free
        counts, anchors, violation instants — with the scalar values.
        """
        release_times = np.ascontiguousarray(release_times, dtype=np.float64)
        release_nodes = np.asarray(release_nodes, dtype=np.int64)
        if release_times.ndim != 2:
            raise ValueError("release_times must be (n_worlds, n_releases)")
        n_worlds, n_rel = release_times.shape
        if release_nodes.shape != (n_rel,):
            raise ValueError("release_nodes must be (n_releases,)")
        if np.any(release_nodes <= 0):
            raise ValueError("release of <= 0 nodes")
        profile = cls(
            start_time,
            free_nodes,
            total_nodes,
            n_worlds,
            capacity=max(n_rel + 1, capacity or 0),
        )
        if n_rel == 0:
            return profile
        if free_nodes + int(release_nodes.sum()) > total_nodes:
            raise RuntimeError("availability profile exceeds machine capacity")
        # Releases at/before the origin fold into the first step.
        early = release_times <= start_time
        base = free_nodes + (release_nodes[None, :] * early).sum(axis=1)
        late_times = np.where(early, np.inf, release_times)
        # Order within an equal-time run never surfaces (the merge below
        # keeps only each run's cumulative total), so the sort need not
        # be stable.
        order = np.argsort(late_times, axis=1)
        rows = np.arange(n_worlds)[:, None]
        t_sorted = late_times[rows, order]
        n_sorted = np.where(np.isfinite(t_sorted), release_nodes[order], 0)
        cum = base[:, None] + np.cumsum(n_sorted, axis=1)
        # Merge equal-time releases: the last of each run carries the
        # cumulative count, exactly like the scalar rebuild.  Duplicates
        # are adjacent after the sort, so a cumsum of the keep mask gives
        # each survivor its compacted column and a single scatter places
        # them; the constructor's padding covers the dropped tail.
        fin = np.isfinite(t_sorted)
        last = fin.copy()
        last[:, :-1] &= t_sorted[:, :-1] != t_sorted[:, 1:]
        profile.times[:, 0] = start_time
        profile.free[:, 0] = base
        if last.all():
            # No early releases, no equal-time runs: two slice copies
            # place every column.
            profile.times[:, 1 : n_rel + 1] = t_sorted
            profile.free[:, 1 : n_rel + 1] = cum
            profile.count = np.full(n_worlds, n_rel + 1, dtype=np.int64)
            return profile
        # Equal-time releases stay as zero-width twin columns instead of
        # being compacted (a per-row shift would need fancy-index
        # scatters).  Every member of a run carries the run's cumulative
        # total — the nearest run-last at/after it, which is a reverse
        # running minimum because ``cum`` is nondecreasing — so any
        # column of a run answers free-count queries for its instant
        # and the zero-width twins are skipped or neutralized by the
        # value-based scans (a twin never widens a segment, and the
        # run-last column supplies the violation marker at its time).
        free_all = np.where(last, cum, total_nodes)
        np.minimum.accumulate(free_all[:, ::-1], axis=1, out=free_all[:, ::-1])
        # Early-release columns sort to the far right as +inf with free
        # ``total_nodes`` — exactly the padding values, so writing them
        # through keeps the padding invariant.
        profile.times[:, 1 : n_rel + 1] = t_sorted
        profile.free[:, 1 : n_rel + 1] = free_all
        profile.count = fin.sum(axis=1) + 1
        return profile

    def _ensure_capacity(self) -> int:
        """Keep >= 2 spare columns so one reserve never overruns.

        Returns the active view width ``max(count) + 2`` — wide enough
        that every world sees at least two padding columns, which the
        vectorized scans rely on (padding is always feasible, so a world
        whose profile never clears surfaces as an ``inf`` anchor).
        Growth is geometric so a long reserve sequence costs amortized
        O(1) reallocations per reserve.
        """
        need = int(self.count.max()) + 2
        n_worlds, width = self.times.shape
        if width >= need:
            return need
        grow = max(need - width, width // 2, 8)
        self.times = np.concatenate(
            [self.times, np.full((n_worlds, grow), np.inf)], axis=1
        )
        self.free = np.concatenate(
            [self.free, np.full((n_worlds, grow), self.total_nodes, dtype=np.int64)],
            axis=1,
        )
        self._drop_scratch()
        return need

    def earliest_start(self, nodes: int, durations: np.ndarray | float) -> np.ndarray:
        """Per-world earliest start for ``(nodes, durations[s])`` requests."""
        w = self._ensure_capacity()
        anchor, _ = self._find(nodes, self._durations(durations), w)
        return anchor

    def _durations(self, durations: np.ndarray | float) -> np.ndarray:
        """``durations`` as an ``(S,)`` float vector; negatives and NaN raise."""
        durations = np.broadcast_to(
            np.asarray(durations, dtype=np.float64), (self.n_worlds,)
        )
        if np.any(~(durations >= 0)):
            raise ValueError("negative or NaN duration")
        return durations

    def _scratch(self) -> None:
        """Lazily (re)build capacity-shaped scratch buffers."""
        if self._scr_tmp is None or self._scr_tmp.shape != self.times.shape:
            shape = self.times.shape
            self._scr_tmp = np.empty(shape)
            self._scr_f = np.empty(shape, dtype=np.int64)
            self._scr_b = np.empty(shape, dtype=bool)
            self._scr_b2 = np.empty(shape, dtype=bool)

    def _find(
        self, nodes: int, durations: np.ndarray, w: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Feasibility search over the active width ``w``.

        Segment ``i`` is feasible iff ``free[i] >= nodes`` and
        ``suffixmin(viol)[i] >= times[i] + duration``, where ``viol[j]``
        is ``times[j]`` when ``free[j] < nodes`` else ``+inf``.
        Including column ``i`` itself in the suffix is free — a violating
        segment can never satisfy the inequality for positive durations —
        except when ``times[i] + duration`` equals ``times[i]`` (a zero or
        underflowing duration), which the explicit ``free >= nodes`` term
        covers.  Returns the ``(S,)`` anchor vector plus the anchoring
        column per world.
        """
        if nodes > self.total_nodes:
            raise ValueError(
                f"request for {nodes} nodes exceeds machine size {self.total_nodes}"
            )
        self._scratch()
        F = self.free[:, :w]
        B = self._scr_b[:, :w]
        np.greater_equal(F, nodes, out=B)  # segment has room
        # No column before the earliest has-room column can anchor any
        # world, and the suffix-min only looks rightward, so the rest of
        # the search runs on the tail view from there.  Padding keeps at
        # least one has-room column per world, so the argmax is a real
        # hit and a never-clearing world surfaces as an ``inf`` anchor.
        c0 = int(B.argmax(axis=1).min())
        T = self.times[:, c0:w]
        Bt = B[:, c0:]
        TMP = self._scr_tmp[:, c0:w]
        B2 = self._scr_b2[:, c0:w]
        viol = np.where(Bt, np.inf, T)  # violation instants
        np.minimum.accumulate(viol[:, ::-1], axis=1, out=viol[:, ::-1])
        np.add(T, durations[:, None], out=TMP)  # candidate end instants
        np.greater_equal(viol, TMP, out=B2)  # next violation at/after end
        B2 &= Bt
        idx = B2.argmax(axis=1) + c0
        anchor = self.times[self._rows, idx]
        if not np.isfinite(anchor).all():
            raise RuntimeError("no feasible start found (profile never clears)")
        return anchor, idx

    def reserve(self, nodes: int, durations: np.ndarray | float) -> np.ndarray:
        """Find the earliest start and carve it, in every world at once.

        Returns the ``(S,)`` anchor vector.  One call replaces ``S``
        scalar ``reserve`` calls.  Every anchor is a segment's own start,
        so no anchor breakpoint is ever inserted and the whole
        find-and-carve collapses to ~15 vectorized passes over an
        active-width view (``w = max(count) + 2``), reusing persistent
        scratch buffers:

        - feasibility comes from :meth:`_find`'s closed form;
        - the splice and the carve only ever touch columns at or after
          the earliest anchor across worlds (``c0 = idx.min()``), so
          both run on that tail view — on a busy machine the anchors sit
          deep in the profile and the tail is a fraction of the width;
        - the (at most one) end breakpoint per world is spliced by an
          in-place masked shift: copy the tail into scratch, shift it
          back one column right where the mask says so, scatter the end
          instants.  The shift duplicates the split segment's free count
          into the new column automatically;
        - the carve mask compares values (``anchor <= t < end``), not
          column indices, so spliced and unspliced worlds share it, and
          a zero (or underflowing) duration carves nothing.
        """
        w = self._ensure_capacity()
        durations = self._durations(durations)
        anchor, idx = self._find(nodes, durations, w)
        rows = self._rows
        c0 = int(idx.min())
        T = self.times[:, c0:w]
        F = self.free[:, c0:w]
        B = self._scr_b[:, c0:w]
        B2 = self._scr_b2[:, c0:w]
        end = anchor + durations
        # --- splice the end breakpoint where it is missing ---
        # Every anchor column is >= c0 and T[:, c0] <= anchor <= end, and
        # end == anchor needs no splice, so the first tail column never
        # shifts and the argmax below always lands on a padding column at
        # the latest.
        np.greater_equal(T, end[:, None], out=B)
        end_idx = B.argmax(axis=1)
        ins = T[rows, end_idx] != end
        if ins.any():
            B &= ins[:, None]  # columns at/after the insertion point
            tmp_t = self._scr_tmp[:, c0 : w - 1]
            tmp_f = self._scr_f[:, c0 : w - 1]
            np.copyto(tmp_t, T[:, :-1])
            np.copyto(tmp_f, F[:, :-1])
            np.copyto(T[:, 1:], tmp_t, where=B[:, 1:])
            np.copyto(F[:, 1:], tmp_f, where=B[:, 1:])
            sel = np.flatnonzero(ins)
            T[sel, end_idx[sel]] = end[sel]
            self.count += ins
        # --- carve [anchor, end) ---
        np.greater_equal(T, anchor[:, None], out=B)
        np.less(T, end[:, None], out=B2)
        B &= B2
        # Unmasked multiply-subtract: masked integer ufunc loops are much
        # slower than two vectorized passes, and the result is identical.
        carve = self._scr_f[:, c0:w]
        np.multiply(B, nodes, out=carve)
        np.subtract(F, carve, out=F)
        return anchor

    def close_before(self, time: np.ndarray | float) -> None:
        """Close every world's profile before its breakpoint ``time[s]``.

        The batched :meth:`AvailabilityProfile.close_before`: columns
        before ``time[s]`` keep their instants but lose every free node,
        so no later search can anchor there.  Raises :class:`ValueError`
        unless ``time[s]`` is a live breakpoint of world ``s``.
        """
        time = np.broadcast_to(np.asarray(time, dtype=np.float64), (self.n_worlds,))
        w = int(self.count.max())
        times = self.times[:, :w]
        if not (
            np.isfinite(time).all() and (times == time[:, None]).any(axis=1).all()
        ):
            raise ValueError("close_before time is not a breakpoint in every world")
        self.free[:, :w][times < time[:, None]] = 0

    def free_at(self, time: np.ndarray | float) -> np.ndarray:
        """Per-world free nodes at ``time`` (for tests/inspection)."""
        time = np.broadcast_to(np.asarray(time, dtype=np.float64), (self.n_worlds,))
        idx = (self.times <= time[:, None]).sum(axis=1) - 1
        if np.any(idx < 0):
            raise ValueError("time precedes profile start")
        return self.free[np.arange(self.n_worlds), idx]


class ProfilePolicy(Policy):
    """A policy that plans each pass against a seeded availability profile.

    Conservative and EASY backfill seed the profile the same way: running
    jobs' estimated releases, then active reservations' ends, then the
    pending advance reservations carved out.  :meth:`_seeded_profile`
    does it in a scratch profile reused across passes, and
    :meth:`_seed_origin` names what frees up at each seeded instant.
    """

    def __init__(self) -> None:
        # Scratch profile reused across passes; _seeded_profile rebuilds
        # it from the view (BackfillPolicy may keep it as its plan).
        self._profile: AvailabilityProfile | None = None
        # The release pairs the current pass's profile was seeded from,
        # stashed so _seed_origin can attribute them without re-deriving
        # the running jobs' release times (view.releases is not free).
        self._seed_releases: list[tuple[float, int]] = []

    def _seeded_profile(self, view) -> AvailabilityProfile:
        """The pass's availability profile, rebuilt in the scratch object."""
        now = view.now
        releases = view.releases()
        for ares in getattr(view, "active_reservations", ()):
            end = ares.end_time
            releases.append((end if end > now else now, ares.nodes))
        self._seed_releases = releases
        profile = self._profile
        if profile is None or profile.total_nodes != view.total_nodes:
            profile = AvailabilityProfile(now, view.free_nodes, view.total_nodes)
            self._profile = profile
        profile.rebuild(now, view.free_nodes, releases)
        for pres in getattr(view, "reservations", ()):
            carve_start = max(pres.effective_start, now)
            profile.carve(carve_start, pres.duration, pres.nodes, clamp=True)
        return profile

    def _seed_origin(self, view) -> dict:
        """Attribution map for the pass's seeded capacity-raising instants.

        Maps release time -> ``(blocker_kind, blocker_id)`` for every
        instant :meth:`_seeded_profile` seeded the profile with, in the
        same order (so same-instant collisions resolve identically).
        Reservation anchors always land on such an instant — or on a
        reservation end the caller layers on top — so looking an anchor
        up names the binding constraint.  Release times come from the
        pairs stashed by :meth:`_seeded_profile` (running jobs first,
        then active reservations, in seeding order), not from
        re-deriving ``view.releases``; call it after that, in the same
        pass.
        """
        now = view.now
        releases = self._seed_releases
        ids = running_ids(view)
        # dict(zip(...)) pairs release times with ("running_job", id)
        # tags entirely in C; zip stops at len(ids), leaving the active
        # reservations' trailing entries to the loop below.
        origin: dict = dict(
            zip(
                map(_RELEASE_TIME, releases),
                zip(_RUNNING_JOB_TAGS, ids),
            )
        )
        n_running = len(ids)
        for ares, (t, _) in zip(
            getattr(view, "active_reservations", ()), releases[n_running:]
        ):
            origin[t] = ("active_reservation", ares.reservation.res_id)
        for pres in getattr(view, "reservations", ()):
            carve_start = max(pres.effective_start, now)
            origin[carve_start + pres.duration] = (
                "advance_reservation", pres.reservation.res_id,
            )
        return origin


class BackfillPolicy(ProfilePolicy):
    """Conservative backfill: every queued job holds a profile reservation."""

    name = "Backfill"

    def __init__(self) -> None:
        super().__init__()
        # job_id -> last reserved start, maintained only while tracing so
        # reservation events report moves rather than every replan.
        self._last_reserved: dict[int, float] = {}
        # job_id -> last (blocker_kind, blocker_id), maintained only under
        # provenance so binding events report moves rather than every pass.
        self._last_binding: dict[int, tuple] = {}
        # The kept plan (see the module docstring): the scratch profile
        # as the last untraced walk left it is a plan while _plan_stamp
        # equals the view's plan_stamp; _plan_reserved queued jobs (a
        # prefix of the queue) hold a reservation in it.  Every pass that
        # seeds the profile sets the stamp (None when traced).
        self._plan_stamp: tuple | None = None
        self._plan_reserved = 0

    def select(self, view) -> Sequence:
        """One walk of the queue in arrival order, reserving every job.

        Untraced, the walk stops as soon as no remaining job can start
        *now*, and a pass that finds its kept plan still exact reserves
        only the queue tail the plan lacks (see the module docstring and
        :meth:`_walk`).  Both only skip reservations a full replan would
        make and discard, so under a tracer no plan is kept and the walk
        visits every job (:meth:`_traced_walk`): the selected set is the
        same, and every queued job's reservation is observable.
        """
        tracer = getattr(view, "tracer", None)
        if tracer is not None:
            self._plan_stamp = None
            return self._traced_walk(view, tracer)
        stamp = getattr(view, "plan_stamp", None)
        if stamp is not None and stamp == self._plan_stamp:
            # No kept breakpoint at or before now + MIN_DURATION: no
            # running job is overdue, so every seeded release stands.
            times = self._profile.times
            if len(times) == 1 or times[1] > view.now + MIN_DURATION:
                view.note_kept_plan()
                return self._walk(view, self._plan_reserved, stamp)
        return self._walk(view, None, stamp)

    def _walk(self, view, reserved: int | None, stamp) -> list:
        """The untraced walk over the queue past its first ``reserved`` jobs.

        With ``reserved`` of ``None`` the walk covers the whole queue in a
        freshly seeded profile, kept under ``stamp`` when that is not
        ``None``; otherwise those jobs hold reservations in the kept
        profile, whose origin moves to ``now``.  The jobs walked are read
        from the back of the insertion-ordered queue, so a kept prefix is
        never copied.  The walk stops once free nodes at ``now`` are
        below the smallest request left (see the module docstring), and
        skips the profile entirely when not even the narrowest job fits.
        """
        queued = view.queued
        n = len(queued) - (reserved or 0)
        if n <= 0:
            return []
        jobs = list(islice(reversed(queued), n))  # newest first
        # suffix_min[k] is the smallest request among jobs[k:] once both
        # lists are turned to arrival order: the early-exit threshold.
        suffix_min = [0] * n
        smallest = jobs[0].job.nodes
        for k, qj in enumerate(jobs):
            nd = qj.job.nodes
            if nd < smallest:
                smallest = nd
            suffix_min[k] = smallest
        suffix_min.reverse()
        jobs.reverse()
        free_now = view.free_nodes
        if free_now < suffix_min[0]:
            return []
        now = view.now
        if reserved is None:
            profile = self._seeded_profile(view)
            reserved = 0
            self._plan_stamp = stamp
        else:
            profile = self._profile
            profile.times[0] = now
        min_duration = MIN_DURATION
        estimate = view.estimate
        reserve = profile.reserve
        started = []
        walked = n
        for k in range(n):
            if free_now < suffix_min[k]:
                walked = k
                break  # no remaining job can start now; see module docstring
            qj = jobs[k]
            duration = estimate(qj)
            if duration < min_duration:
                duration = min_duration
            job = qj.job
            if reserve(job.nodes, duration) <= now:
                started.append(qj)
                free_now -= job.nodes
        self._plan_reserved = reserved + walked - len(started)
        return started

    def _traced_walk(self, view, tracer) -> list:
        """The walk under a tracer: every queued job is reserved afresh.

        Events report the reservation *life-cycle*:
        ``reservation_placed`` the first time a job gets a future start,
        ``reservation_shifted`` whenever a replan moves it.

        Under the provenance knob the walk additionally attributes every
        *moved* reservation to its binding constraint.  A reservation
        that did not move keeps its binding — its anchor is the same
        instant — so attribution runs as a per-pass epilogue
        (:meth:`_attribute_bindings`) over just the moved jobs, and the
        many passes that move nothing pay only for recording that fact.
        ``reservation_binding`` is emitted change-only per job;
        ``backfill_hole_used`` marks each out-of-order start with the
        earlier blocked arrival whose reservation opened the hole.
        """
        queued = list(view.queued)  # arrival order
        if not queued:
            return []
        prov = getattr(view, "provenance_tracer", None)
        now = view.now
        min_duration = MIN_DURATION
        estimate = view.estimate
        reserve = self._seeded_profile(view).reserve
        last = self._last_reserved
        first_blocked: tuple[int, float] | None = None
        started = []
        started_ids: set[int] = set()
        moved: list[tuple[int, int, float]] = []
        for k, qj in enumerate(queued):
            duration = estimate(qj)
            if duration < min_duration:
                duration = min_duration
            job = qj.job
            jid = job.job_id  # hoisted: QueuedJob.job_id is a property
            start = reserve(job.nodes, duration)
            if start <= now:
                started.append(qj)
                last.pop(jid, None)
                if prov is not None:
                    started_ids.add(jid)
                    if first_blocked is not None:
                        prov.emit(
                            "backfill_hole_used",
                            sim_time=now,
                            job_id=jid,
                            policy=self.name,
                            hole_start_s=now,
                            hole_end_s=first_blocked[1],
                            ahead_job_id=first_blocked[0],
                            nodes=job.nodes,
                        )
                continue
            if prov is not None and first_blocked is None:
                first_blocked = (jid, start)
            prev = last.get(jid)
            if prev is None:
                tracer.emit(
                    "reservation_placed",
                    sim_time=now,
                    job_id=jid,
                    policy=self.name,
                    cause="backfill_replan",
                    start_s=start,
                    nodes=job.nodes,
                )
            elif start == prev:
                continue  # reservation unchanged; nothing to record
            else:
                tracer.emit(
                    "reservation_shifted",
                    sim_time=now,
                    job_id=jid,
                    policy=self.name,
                    cause="backfill_replan",
                    start_s=start,
                    previous_start_s=prev,
                    nodes=job.nodes,
                )
            last[jid] = start
            if prov is not None:
                moved.append((k, jid, start))
        if moved:
            self._attribute_bindings(view, queued, moved, started_ids, prov)
        return started

    def _attribute_bindings(self, view, queued, moved, started_ids, prov) -> None:
        """Attribute each moved reservation to its binding constraint.

        Runs once per pass that placed or shifted at least one
        reservation.  The anchor :meth:`AvailabilityProfile.reserve`
        returned for a moved job is always a capacity-raising instant,
        and the origin map — seeded instants (:meth:`_seed_origin`) plus
        the reservation ends of every queued job ahead of it — names
        what frees up there.  The walk already recorded everything the
        map needs: a job that started this pass releases its nodes at
        ``now + duration`` (its anchor was exactly ``now``), and a
        blocked job's reservation end is ``_last_reserved[jid] +
        duration`` (the walk just refreshed it); durations re-read the
        estimate cache the walk just warmed — directly rather than via
        :meth:`SchedulerView.estimate`, so detail mode's per-call
        ``cache_hit`` events and hit counters see only the walk's own
        lookups.  The replay visits the queue prefix up to the last
        moved job, resolving each moved job against the map state at
        its own walk position, and emits ``reservation_binding``
        change-only per job.
        """
        now = view.now
        min_duration = MIN_DURATION
        cache = view._cache  # pass-warm: the walk estimated every prefix job
        last = self._last_reserved
        binding = self._last_binding
        origin = self._seed_origin(view)
        mi = 0
        next_k = moved[0][0]
        n_moved = len(moved)
        for k, qj in enumerate(queued):
            jid = qj.job.job_id
            duration = cache[jid]
            if duration < min_duration:
                duration = min_duration
            if k == next_k:
                start = moved[mi][2]
                kind, bid = origin.get(start, _UNKNOWN_BINDING)
                report_blocker(
                    prov, binding, "reservation_binding", now, self.name,
                    jid, kind, bid, start_s=start,
                )
                mi += 1
                if mi == n_moved:
                    return
                next_k = moved[mi][0]
                origin[start + duration] = ("queued_reservation", jid)
                continue
            if jid in started_ids:
                origin[now + duration] = ("running_job", jid)
            else:
                prev = last.get(jid)
                if prev is not None:
                    origin[prev + duration] = ("queued_reservation", jid)
