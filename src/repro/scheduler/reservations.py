"""Advance reservations — the paper's §5 co-allocation building block.

    "Further, we will expand our work in using run-time prediction
    techniques for scheduling to the problem of combining queue-based
    scheduling and reservations.  Reservations are one way to
    co-allocate resources in metacomputing systems."

A :class:`Reservation` blocks out ``nodes`` nodes over
``[start_time, start_time + duration)`` for an external party (e.g. the
local half of a multi-machine co-allocation).  The simulator activates
it at its start time if the nodes are free; otherwise the reservation
*waits* — it claims nodes the moment enough are released, ahead of any
queued job — and the delay is recorded.  Whether reservations start on
time therefore depends on how well the queue scheduler kept the window
clear, which is exactly where run-time prediction accuracy enters:
backfill carves pending reservations into its availability profile and
will not start a job it *believes* overlaps one, but a belief based on
bad estimates protects nothing.

:class:`ReservationRecord` (delivered in
:attr:`repro.scheduler.simulator.Simulator.reservation_records`) carries
the scheduled versus actual start for delay accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Reservation", "ReservationRecord"]


@dataclass(frozen=True)
class Reservation:
    """A fixed block of nodes promised to an external party."""

    res_id: int
    start_time: float
    duration: float
    nodes: int

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError(f"reservation {self.res_id}: nodes must be >= 1")
        # Chained comparisons reject NaN and inf: an event at a non-finite
        # time never drains from the simulator's event loop.
        if not 0.0 < self.duration < math.inf:
            raise ValueError(
                f"reservation {self.res_id}: duration must be finite and > 0, "
                f"got {self.duration}"
            )
        if not 0.0 <= self.start_time < math.inf:
            raise ValueError(
                f"reservation {self.res_id}: start_time must be finite and >= 0, "
                f"got {self.start_time}"
            )

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration


@dataclass(frozen=True)
class ReservationRecord:
    """Outcome of one reservation: when it was promised vs. honoured."""

    res_id: int
    scheduled_start: float
    actual_start: float
    nodes: int
    duration: float

    @property
    def delay(self) -> float:
        return self.actual_start - self.scheduled_start
