"""Fault-tolerant refresh scheduling: retry, backoff, breaker, epochs.

The :class:`RefreshScheduler` runs :class:`~repro.warehouse.maintenance.
ViewMaintainer` refreshes under failure: each view refresh is retried
with bounded exponential backoff and seeded jitter, guarded by a
per-view :class:`CircuitBreaker`, and accounted against a per-call
timeout budget.  A successful refresh bumps the view's *freshness
epoch*; the warehouse query path reads the breaker and epoch state to
decide which views are servable (see
:meth:`repro.warehouse.warehouse.DataWarehouse.serve`).

Time is a :class:`LogicalClock` counting ticks — one per block of I/O
performed plus injected delay ticks — never the wall clock, so a fixed
seed reproduces the exact trajectory (backoffs, breaker transitions,
outcomes) bit-identically across runs.

Atomicity: the maintainer already refreshes into a shadow table and
swaps on success (see :mod:`repro.warehouse.maintenance`), and the
fault injector aborts *before* mutating rows, so a failed attempt
leaves the previously-served contents untouched — queries racing a
failing refresh see the old consistent state, never a partial one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro import obs
from repro.errors import ReproError, ResilienceError
from repro.resilience.config import (
    BreakerPolicy,
    ResilienceConfig,
    RetryPolicy,
)
from repro.resilience.faults import FaultInjector

if TYPE_CHECKING:  # pragma: no cover
    from repro.warehouse.view import MaterializedView
    from repro.warehouse.warehouse import DataWarehouse

__all__ = [
    "LogicalClock",
    "CircuitBreaker",
    "RefreshOutcome",
    "RefreshScheduler",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: Breaker-state gauge encoding (stable across runs for dashboards).
_STATE_CODES = {CLOSED: 0.0, HALF_OPEN: 1.0, OPEN: 2.0}


class LogicalClock:
    """Deterministic time: ticks advanced explicitly, never read from OS."""

    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, ticks: float) -> float:
        if ticks < 0:
            raise ResilienceError(f"cannot advance the clock by {ticks}")
        self.now += ticks
        return self.now


class CircuitBreaker:
    """CLOSED → OPEN → HALF_OPEN state machine over a logical clock.

    ``failure_threshold`` consecutive failures open the breaker; after
    ``reset_ticks`` it half-opens and admits one probe.  A success in
    any state closes it and zeroes the failure count.
    """

    def __init__(self, policy: BreakerPolicy, clock: LogicalClock):
        self.policy = policy
        self.clock = clock
        self.failures = 0
        self.opened_at: Optional[float] = None
        self._probing = False

    @property
    def state(self) -> str:
        if self.opened_at is None:
            return CLOSED
        if self.clock.now - self.opened_at >= self.policy.reset_ticks:
            return HALF_OPEN
        return OPEN

    def allows(self) -> bool:
        """Whether a refresh attempt may proceed right now."""
        state = self.state
        if state == CLOSED:
            return True
        if state == HALF_OPEN and not self._probing:
            return True
        return False

    def begin_probe(self) -> None:
        if self.state == HALF_OPEN:
            self._probing = True

    def record_success(self) -> None:
        self.failures = 0
        self.opened_at = None
        self._probing = False

    def record_failure(self) -> None:
        self.failures += 1
        self._probing = False
        if self.opened_at is not None or (
            self.failures >= self.policy.failure_threshold
        ):
            # Re-open (or open for the first time) from *now*: a failed
            # half-open probe restarts the full reset window.
            self.opened_at = self.clock.now


@dataclass(frozen=True)
class RefreshOutcome:
    """What happened to one view in one scheduler pass."""

    view: str
    status: str  # "refreshed" | "failed" | "skipped"
    attempts: int
    ticks: float
    epoch: int
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "refreshed"


class RefreshScheduler:
    """Runs view refreshes with retry/backoff/breaker/epoch semantics."""

    def __init__(
        self,
        warehouse: "DataWarehouse",
        config: Optional[ResilienceConfig] = None,
        injector: Optional[FaultInjector] = None,
    ):
        self.warehouse = warehouse
        self.config = config or ResilienceConfig()
        self.injector = injector
        self.clock = LogicalClock()
        self._rng = random.Random(self.config.seed)
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._epochs: Dict[str, int] = {}

    # ----------------------------------------------------------------- state
    def breaker(self, view_name: str) -> CircuitBreaker:
        breaker = self._breakers.get(view_name)
        if breaker is None:
            breaker = CircuitBreaker(self.config.breaker, self.clock)
            self._breakers[view_name] = breaker
        return breaker

    def breaker_state(self, view_name: str) -> str:
        return self.breaker(view_name).state

    def epoch(self, view_name: str) -> int:
        """Monotonic per-view freshness epoch (0 = never refreshed here)."""
        return self._epochs.get(view_name, 0)

    def allows(self, view_name: str) -> bool:
        """Whether the query path may serve this view (breaker not open)."""
        return self.breaker(view_name).state != OPEN

    # --------------------------------------------------------------- refresh
    def refresh_view(self, view: "MaterializedView") -> RefreshOutcome:
        """Refresh one view under the retry/backoff/breaker policy.

        Never raises on refresh failure: the outcome's ``status`` says
        whether the view converged, and breaker/epoch state is updated
        either way.  Timeout is a total tick budget for the call.
        """
        retry = self.config.retry
        breaker = self.breaker(view.name)
        started = self.clock.now
        deadline = (
            None
            if retry.timeout_ticks is None
            else started + retry.timeout_ticks
        )

        with obs.correlation("refresh"), obs.span(
            "resilience.refresh", view=view.name, breaker=breaker.state
        ) as span:
            self._journal(
                "resilience.refresh.begin",
                view=view.name,
                breaker=breaker.state,
            )
            if not breaker.allows():
                self._gauge(view.name, breaker)
                self._counter("resilience.refresh.skipped", view=view.name)
                span.set(status="skipped")
                self._journal(
                    "resilience.refresh.end", view=view.name, status="skipped"
                )
                return RefreshOutcome(
                    view.name, "skipped", 0, 0.0, self.epoch(view.name),
                    error="circuit breaker open",
                )
            breaker.begin_probe()

            error = ""
            attempts = 0
            for attempt in range(1, retry.max_attempts + 1):
                attempts = attempt
                self._counter("resilience.refresh.attempts", view=view.name)
                self._journal(
                    "resilience.refresh.attempt",
                    view=view.name,
                    attempt=attempt,
                )
                io_before = self.warehouse.database.io.snapshot()
                try:
                    if self.injector is not None:
                        with self.injector.maintenance():
                            report = self.warehouse.maintainer.materialize(view)
                    else:
                        report = self.warehouse.maintainer.materialize(view)
                except ReproError as exc:
                    spent = self.warehouse.database.io.since(io_before).total
                    self.clock.advance(float(spent))
                    self._drain_delays()
                    error = str(exc)
                    self._counter("resilience.refresh.failures", view=view.name)
                    if attempt < retry.max_attempts:
                        backoff = retry.backoff_ticks(
                            attempt, self._rng.random()
                        )
                        if deadline is not None and (
                            self.clock.now + backoff > deadline
                        ):
                            error = (
                                f"timeout after {attempt} attempts: {error}"
                            )
                            break
                        self._counter(
                            "resilience.refresh.retries", view=view.name
                        )
                        self._journal(
                            "resilience.refresh.retry",
                            view=view.name,
                            attempt=attempt,
                            backoff=backoff,
                            error=error,
                        )
                        self.clock.advance(backoff)
                        continue
                    break
                else:
                    self.clock.advance(float(report.io.total))
                    self._drain_delays()
                    self._breaker_event(view.name, breaker, breaker.record_success)
                    self.warehouse._mark_fresh(view)
                    self.warehouse.engine.indexes.invalidate(view.name)
                    self._epochs[view.name] = self.epoch(view.name) + 1
                    self._journal(
                        "resilience.epoch.advance",
                        view=view.name,
                        epoch=self._epochs[view.name],
                    )
                    self._gauge(view.name, breaker)
                    ticks = self.clock.now - started
                    self._histogram(
                        "resilience.refresh.ticks", view.name, ticks
                    )
                    span.set(
                        status="refreshed", attempts=attempt,
                        epoch=self._epochs[view.name],
                    )
                    self._journal(
                        "resilience.refresh.end",
                        view=view.name,
                        status="refreshed",
                        attempts=attempt,
                    )
                    return RefreshOutcome(
                        view.name, "refreshed", attempt, ticks,
                        self._epochs[view.name],
                    )

            self._breaker_event(view.name, breaker, breaker.record_failure)
            self._gauge(view.name, breaker)
            ticks = self.clock.now - started
            self._histogram("resilience.refresh.ticks", view.name, ticks)
            span.set(status="failed", attempts=attempts, error=error)
            self._journal(
                "resilience.refresh.end",
                view=view.name,
                status="failed",
                attempts=attempts,
                error=error,
            )
            return RefreshOutcome(
                view.name, "failed", attempts, ticks,
                self.epoch(view.name), error=error,
            )

    def refresh_partitions(
        self,
        view: "MaterializedView",
        shards: Optional[Tuple[int, ...]] = None,
    ) -> List[RefreshOutcome]:
        """Partition-wise refresh of a co-partitioned view.

        Refreshes one shard table (``mv_X#s``) per requested shard —
        defaulting to exactly the *stale* shards, i.e. the partitions
        named by update batches since the last refresh.  Every shard
        gets its own circuit breaker and freshness epoch on the shared
        logical clock.  Shards are refreshed in shard order through
        :meth:`refresh_view`.
        """
        manager = getattr(self.warehouse, "sharding", None)
        if manager is None:
            raise ResilienceError(
                "partition-wise refresh needs a sharded warehouse; "
                "call DataWarehouse.enable_sharding() first"
            )
        base = manager.copartition_base(view)
        if base is None:
            raise ResilienceError(
                f"view {view.name!r} is not co-partitioned with any "
                f"sharded relation"
            )
        scheme = manager.catalog.require_scheme(base)
        if shards is None:
            if manager.view_shards_available(view):
                shards = manager.stale_shards(view)
            else:
                shards = scheme.all_shards
        shards = tuple(sorted(shards))
        if not shards:
            return []
        outcomes = []
        for shard in shards:
            outcome = self.refresh_view(manager.shard_view(view, shard))
            if outcome.ok:
                manager.record_fresh(view, shard)
            outcomes.append(outcome)
        return outcomes

    def refresh_all(self) -> List[RefreshOutcome]:
        """One scheduler pass over every installed view (name order)."""
        outcomes = []
        for view in sorted(self.warehouse.views, key=lambda v: v.name):
            outcomes.append(self.refresh_view(view))
        return outcomes

    def refresh_until_converged(
        self, max_passes: int = 10
    ) -> List[RefreshOutcome]:
        """Repeat scheduler passes until every view is fresh (or give up).

        Between passes the clock keeps advancing, so open breakers get
        their half-open probe on a later pass.  Returns the outcomes of
        the final pass.
        """
        outcomes: List[RefreshOutcome] = []
        for _ in range(max_passes):
            stale = [
                view
                for view in sorted(self.warehouse.views, key=lambda v: v.name)
                if not self.warehouse.is_fresh(view)
            ]
            if not stale:
                break
            outcomes = [self.refresh_view(view) for view in stale]
            if all(o.ok for o in outcomes):
                break
            # Let open breakers age toward their half-open probe.
            self.clock.advance(self.config.breaker.reset_ticks)
        return outcomes

    # ------------------------------------------------------------- streaming
    def note_io(self, blocks: float) -> float:
        """Advance the logical clock for I/O performed outside a refresh.

        The CDC drain loop evaluates deltas itself (no
        :meth:`refresh_view` call) but must still move shared time — the
        breakers' reset windows and the bounded-staleness tick clock all
        read this clock.  Injected delay ticks accumulated meanwhile are
        drained as well.  Returns the new time.
        """
        self.clock.advance(float(blocks))
        self._drain_delays()
        return self.clock.now

    def degrade(self, view: "MaterializedView", reason: str) -> RefreshOutcome:
        """Fall back from streaming to a batch refresh of ``view``.

        Called by the :class:`~repro.cdc.streaming.StreamingMaintainer`
        when a view cannot absorb a delta (propagation fault, retention
        gap, recompute-only edge).  Records the failure against the
        view's circuit breaker only when the cause was a fault — a
        planned recompute is not an error — then runs the normal
        retry/backoff refresh path.
        """
        self._counter("cdc.degraded", view=view.name, reason=reason)
        self._journal("cdc.degrade", view=view.name, reason=reason)
        return self.refresh_view(view)

    # --------------------------------------------------------------- metrics
    def _drain_delays(self) -> None:
        if self.injector is not None:
            self.clock.advance(self.injector.drain_delay_ticks())

    def _journal(self, kind: str, **attributes) -> None:
        """One flight-recorder event stamped with the logical clock."""
        if obs.enabled():
            obs.journal_event(kind, tick=self.clock.now, **attributes)

    def _breaker_event(self, view_name: str, breaker: CircuitBreaker, action) -> None:
        """Run a breaker state change, journaling any observable transition."""
        before = breaker.state
        action()
        after = breaker.state
        if after != before:
            self._journal(
                "resilience.breaker.transition",
                view=view_name,
                from_state=before,
                to_state=after,
            )

    @staticmethod
    def _counter(name: str, **labels: str) -> None:
        if obs.enabled():
            obs.metrics().counter(name, **labels).inc()

    @staticmethod
    def _histogram(name: str, view: str, value: float) -> None:
        if obs.enabled():
            obs.metrics().histogram(name, view=view).observe(value)

    def _gauge(self, view_name: str, breaker: CircuitBreaker) -> None:
        if obs.enabled():
            obs.metrics().gauge(
                "resilience.breaker_state", view=view_name
            ).set(_STATE_CODES[breaker.state])
