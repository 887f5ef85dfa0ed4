"""The bundle the engines are instrumented with.

:class:`Instrumentation` pairs a :class:`~repro.obs.metrics.MetricsRegistry`
with a :class:`~repro.obs.trace.Tracer` and fixes the cost knobs:

- ``detail`` — count estimate-cache *hits* and (when the sink is
  enabled) emit per-estimate ``cache_hit``/``cache_miss`` events.  Off
  by default even when tracing: hit counting sits on the single hottest
  call in the engine, and full traces of it are enormous.
- ``time_passes`` (derived, not settable) — time every scheduling
  pass into the ``sim.pass_duration_seconds`` histogram (and emit
  ``span`` events when the sink is enabled).  On exactly when the
  tracer is enabled or ``detail`` was requested, so plain replays pay
  nothing.
- ``audit`` — a :class:`~repro.obs.audit.PredictionAudit` pairing every
  prediction with its outcome (``runtime_predicted`` /
  ``wait_predicted`` / ``prediction_resolved`` events plus a streaming
  :class:`~repro.obs.accuracy.AccuracyMonitor`).  ``None`` by default;
  pass ``audit=True`` to build one sharing the bundle's tracer.  The
  engines bind the audited code paths only when this is set, so the
  default replay executes zero audit instructions.
- ``provenance`` — emit decision-provenance events
  (``start_blocked``/``reservation_binding``/``backfill_hole_used``)
  from the policies' selection walks, attributing each queued job's delay
  to the running job or reservation that binds it.  Follows ``detail``
  when unset; requires an enabled tracer to have any effect (the
  engine's ``provenance_tracer`` gate stays ``None`` otherwise).
- ``timeseries`` — a :class:`~repro.obs.timeseries.StateSeries` sampler
  attached to the engine as an observer, recording queue depth, running
  jobs, utilization, fragmentation, and backlog over *simulated* time.
  ``None`` by default; pass ``timeseries=True`` to build one with
  default capacity, or an existing :class:`StateSeries` to share.

The default ``Instrumentation()`` — fresh registry, shared null tracer,
all knobs off — is what every :class:`~repro.scheduler.Simulator` gets
when the caller passes nothing; its overhead budget (<2% on the hot-path
bench) is what lets the counters stay on unconditionally.
"""

from __future__ import annotations

from repro.obs.audit import PredictionAudit
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer

__all__ = ["Instrumentation"]


class Instrumentation:
    """Metrics registry + tracer + audit + cost knobs, handed to an engine."""

    __slots__ = ("registry", "tracer", "detail", "time_passes", "audit",
                 "provenance", "timeseries")

    def __init__(
        self,
        tracer: Tracer | None = None,
        *,
        detail: bool = False,
        audit: PredictionAudit | bool | None = None,
        provenance: bool | None = None,
        timeseries: "StateSeries | bool | None" = None,
    ) -> None:
        self.registry = MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.detail = bool(detail)
        self.time_passes = self.tracer.enabled or self.detail
        if audit is True:
            audit = PredictionAudit(tracer=self.tracer)
        elif audit is False:
            audit = None
        self.audit = audit
        self.provenance = self.detail if provenance is None else bool(provenance)
        if timeseries is True:
            from repro.obs.timeseries import StateSeries

            timeseries = StateSeries()
        elif timeseries is False:
            timeseries = None
        self.timeseries = timeseries

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Instrumentation(tracing={self.tracer.enabled}, "
            f"detail={self.detail}, time_passes={self.time_passes}, "
            f"audit={self.audit is not None}, provenance={self.provenance}, "
            f"timeseries={self.timeseries is not None})"
        )
