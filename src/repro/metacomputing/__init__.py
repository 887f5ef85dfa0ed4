"""Metacomputing substrate: multiple machines, one broker.

The paper's introduction motivates wait-time prediction with
metacomputing resource selection: "Estimates of queue wait times are
useful to guide resource selection when several systems are available
[7], to co-allocate resources from multiple systems [2], ...".  This
package provides the multi-machine simulation that motivation implies:

- :class:`Machine` — a named scheduler instance (policy, estimator,
  node count) advancing on a shared clock;
- routing strategies (:mod:`repro.metacomputing.routing`) — random,
  round-robin, least queued work, and the paper-motivated
  **predicted-wait** strategy that probes every machine with a forward
  simulation;
- :class:`MetaSimulator` — drives a global arrival stream through a
  broker into the machines, time-synchronized, and aggregates the
  resulting waits per strategy.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Machine",
    "RoutingStrategy",
    "RandomRouting",
    "RoundRobinRouting",
    "LeastQueuedWorkRouting",
    "PredictedWaitRouting",
    "MetaSimulator",
    "MetaResult",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.metacomputing.machine": ("Machine",),
    "repro.metacomputing.routing": (
        "LeastQueuedWorkRouting", "PredictedWaitRouting", "RandomRouting", "RoundRobinRouting",
        "RoutingStrategy",
    ),
    "repro.metacomputing.broker": ("MetaSimulator", "MetaResult"),
})
