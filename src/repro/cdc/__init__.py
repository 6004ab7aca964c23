"""CDC-driven streaming incremental view maintenance.

The subsystem has four layers (see ``docs/streaming.md``):

* :mod:`repro.cdc.changelog` — per-relation write-ahead change logs
  (transactional-outbox capture via the storage write hook);
* :mod:`repro.cdc.policy` — the :class:`StreamingPolicy` bounded-
  staleness / load-leveling knobs carried on ``DesignConfig.streaming``;
* :mod:`repro.cdc.propagation` — the delta propagation graph compiled
  from the installed design, generalizing the single-view delta rules
  into per-edge operators with shared-subplan deltas;
* :mod:`repro.cdc.streaming` — the :class:`StreamingMaintainer` that
  drains logs with coalescing, backpressure and circuit-breaker
  degradation to batch refresh.

Entry point: :meth:`repro.warehouse.warehouse.DataWarehouse.
enable_streaming`.  The seeded end-to-end streaming run
(``repro simulate --stream``) is
:func:`repro.warehouse.simulation.simulate_lifecycle`.
"""

from repro.cdc.changelog import (
    CHANGE_OPS,
    ChangeLog,
    ChangeLogSet,
    ChangeRecord,
    DEFAULT_RETENTION,
    DELETE,
    INSERT,
    UPDATE,
)
from repro.cdc.policy import DEFAULT_STREAMING_POLICY, StreamingPolicy
from repro.cdc.propagation import (
    DeltaPropagator,
    EdgeRule,
    MODE_DELTA,
    MODE_RECOMPUTE,
    PropagationGraph,
    SharedDelta,
    ViewDelta,
)
from repro.cdc.streaming import DrainReport, StreamingMaintainer

__all__ = [
    "CHANGE_OPS",
    "ChangeLog",
    "ChangeLogSet",
    "ChangeRecord",
    "DEFAULT_RETENTION",
    "DEFAULT_STREAMING_POLICY",
    "DELETE",
    "INSERT",
    "UPDATE",
    "DeltaPropagator",
    "DrainReport",
    "EdgeRule",
    "MODE_DELTA",
    "MODE_RECOMPUTE",
    "PropagationGraph",
    "SharedDelta",
    "StreamingMaintainer",
    "StreamingPolicy",
    "ViewDelta",
]
