"""The unified design-pipeline configuration and result protocol.

:class:`DesignConfig` is one frozen dataclass holding every design-time
knob (selection strategy, candidate count, parallel workers, cost-cache
toggle, seed).  It is the only way to configure :func:`repro.design`,
:meth:`DataWarehouse.design
<repro.warehouse.warehouse.DataWarehouse.design>` and
:meth:`~repro.warehouse.warehouse.DataWarehouse.redesign`; the CLI builds
one from its flags.

:class:`CostedResult` is the common read protocol shared by
:class:`~repro.mvpp.generation.DesignResult` and
:class:`~repro.mvpp.strategies.StrategyResult`: ``query_cost``,
``maintenance_cost``, ``total_cost`` and ``views``, so Table-2 rows and
full pipeline results are interchangeable in reports and tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional, Protocol, Tuple, runtime_checkable

from repro.errors import MVPPError
from repro.mvpp.cost import PER_BASE, PER_PERIOD
from repro.parallel.executor import EXECUTOR_KINDS
from repro.resilience.config import ResilienceConfig

__all__ = [
    "CostedResult",
    "DesignConfig",
    "DEFAULT_DESIGN_CONFIG",
]


@dataclass(frozen=True)
class DesignConfig:
    """Every knob of the design pipeline in one immutable value.

    ``strategy`` names a registered selection strategy (see
    :func:`repro.mvpp.strategies.strategy_names`); ``rotations`` caps the
    number of Figure-4 candidate MVPPs (``None`` = one per query);
    ``workers`` / ``executor`` control the parallel fan-out (``workers=1``
    is serial, ``workers=0`` auto-sizes to the CPU count); ``cache``
    toggles the shared :class:`~repro.mvpp.cost.CostCache`; ``seed``
    feeds the randomized strategies (annealing, genetic).

    ``maintenance_trigger=None`` means "the caller's default" — plain
    :func:`repro.mvpp.generation.design` resolves it to ``per-period``
    (the paper's accounting) while :meth:`DataWarehouse.design
    <repro.warehouse.warehouse.DataWarehouse.design>` substitutes the
    warehouse's configured trigger.

    ``lint=True`` runs the semantic linter (:mod:`repro.lint.semantic`)
    over the chosen design before returning: the report is attached as
    ``DesignResult.lint_report``, its counters land in :mod:`repro.obs`,
    and error-severity findings raise :class:`~repro.errors.LintError`.

    ``adaptive`` (an :class:`~repro.adaptive.policy.AdaptivePolicy`, or
    ``None`` for a static design) configures the online controller built
    by :meth:`DataWarehouse.controller
    <repro.warehouse.warehouse.DataWarehouse.controller>`: drift
    detection windows, hysteresis, and the cost-gated migration rule.

    ``streaming`` (a :class:`~repro.cdc.policy.StreamingPolicy`, or
    ``None``) is the default bounded-staleness / load-leveling policy
    :meth:`DataWarehouse.enable_streaming
    <repro.warehouse.warehouse.DataWarehouse.enable_streaming>` applies
    for CDC-driven streaming maintenance.
    """

    strategy: str = "heuristic"
    rotations: Optional[int] = None
    workers: int = 1
    executor: str = "auto"
    cache: bool = True
    seed: int = 0
    maintenance_trigger: Optional[str] = None
    push_down: bool = True
    include_naive: bool = False
    lint: bool = False
    resilience: Optional[ResilienceConfig] = None
    adaptive: Optional[Any] = None
    engine: Optional[str] = None
    streaming: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.resilience is not None and not isinstance(
            self.resilience, ResilienceConfig
        ):
            raise MVPPError(
                f"resilience must be a ResilienceConfig: {self.resilience!r}"
            )
        if self.streaming is not None:
            # Imported lazily: repro.cdc depends on this module's users.
            from repro.cdc.policy import StreamingPolicy

            if not isinstance(self.streaming, StreamingPolicy):
                raise MVPPError(
                    f"streaming must be a StreamingPolicy: {self.streaming!r}"
                )
        if self.adaptive is not None:
            # Imported lazily: repro.adaptive depends on this module.
            from repro.adaptive.policy import AdaptivePolicy

            if not isinstance(self.adaptive, AdaptivePolicy):
                raise MVPPError(
                    f"adaptive must be an AdaptivePolicy: {self.adaptive!r}"
                )
        if not self.strategy or not isinstance(self.strategy, str):
            raise MVPPError(f"strategy must be a non-empty name: {self.strategy!r}")
        if self.rotations is not None and self.rotations < 1:
            raise MVPPError(f"rotations must be >= 1 (or None): {self.rotations}")
        if self.workers < 0:
            raise MVPPError(f"workers must be >= 0: {self.workers}")
        if self.executor not in EXECUTOR_KINDS:
            raise MVPPError(
                f"unknown executor {self.executor!r}; "
                f"expected one of {EXECUTOR_KINDS}"
            )
        if self.maintenance_trigger not in (None, PER_BASE, PER_PERIOD):
            raise MVPPError(
                f"unknown maintenance trigger: {self.maintenance_trigger!r}"
            )
        if self.engine is not None:
            from repro.executor.engine import ENGINES

            if self.engine not in ENGINES:
                raise MVPPError(
                    f"unknown execution engine {self.engine!r}; "
                    f"expected one of {ENGINES}"
                )

    # ------------------------------------------------------------- resolution
    def resolved_trigger(self, default: str = PER_PERIOD) -> str:
        """The maintenance trigger with ``None`` resolved to ``default``."""
        return self.maintenance_trigger or default

    @property
    def parallel(self) -> bool:
        """Whether this config requests any parallel fan-out."""
        return self.workers != 1

    def replace(self, **changes: Any) -> "DesignConfig":
        """A copy with the given fields changed (re-validated)."""
        return replace(self, **changes)


#: The all-defaults config: Figure-9 heuristic, serial, cache on.
DEFAULT_DESIGN_CONFIG = DesignConfig()

@runtime_checkable
class CostedResult(Protocol):
    """What any costed design answer exposes, Table-2 row or full design."""

    @property
    def query_cost(self) -> float:
        """Per-period query-processing cost ``Σ fq·C(mv → r)``."""

    @property
    def maintenance_cost(self) -> float:
        """Per-period view-maintenance cost ``Σ fu·Cm``."""

    @property
    def total_cost(self) -> float:
        """``query_cost + maintenance_cost``."""

    @property
    def views(self) -> Tuple[str, ...]:
        """Names of the materialized vertices this result selects."""
