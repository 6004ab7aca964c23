"""Spans and outcome hooks around the program's public functions.

The benchmark never edits the program: it wraps public functions and
methods from outside, for the length of one measured pass, and puts the
originals back afterwards.  A function a caller bound at import time
(``from repro.sql.translator import parse_query``) is replaced in every
loaded ``repro`` module that holds it, so the caller's own binding is
the one traced.

Two kinds of wrapper exist:

* outcome hooks (always on): record what ``StreamingMaintainer.drain``
  and ``RefreshScheduler.refresh_view`` return, so failures inside a
  drain count against the op that triggered it;
* spans (traced runs only): name, start, end, parent span and op id,
  kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cdc.streaming import StreamingMaintainer
from repro.executor.engine import ExecutionEngine
from repro.executor.physical import PhysicalPlanner
from repro.mvpp import strategies
from repro.mvpp.config import DesignConfig
from repro.resilience.scheduler import RefreshScheduler
from repro.storage.table import Table
from repro.warehouse.maintenance import ViewMaintainer
from repro.warehouse.warehouse import DataWarehouse

#: Module-level functions traced wherever they are bound: (span, module, name).
FUNCTIONS = (
    ("sql.parse", "repro.sql.translator", "parse_query"),
    ("optimizer.optimize", "repro.optimizer.heuristics", "optimize_query"),
    ("mvpp.generate", "repro.mvpp.generation", "generate_mvpps"),
    ("rewriter.rewrite", "repro.warehouse.rewriter", "rewrite_with_views"),
)

#: Methods traced on their class: (span, class, method).
METHODS = (
    ("warehouse.design", DataWarehouse, "design"),
    ("warehouse.serve", DataWarehouse, "serve"),
    ("executor.lower", PhysicalPlanner, "lower"),
    ("executor.run", ExecutionEngine, "run"),
    ("executor.run", ExecutionEngine, "execute"),
    ("storage.insert", Table, "insert_many"),
    ("maintenance.materialize", ViewMaintainer, "materialize"),
    ("maintenance.incremental", ViewMaintainer, "incremental_refresh"),
    ("cdc.lag", StreamingMaintainer, "max_lag"),
    ("cdc.lag", StreamingMaintainer, "lag_records"),
)


class Instruments:
    """Installs hooks (and, when tracing, spans) for one measured pass."""

    def __init__(self, trace: bool):
        self.trace = trace
        #: [op, name, start, end, parent] per span, in start order.
        self.spans: List[List[Any]] = []
        self.op = -1
        #: While set, wrappers call straight through (benchmark checks).
        self.paused = False
        self.drains: List[Any] = []
        self.refreshes: List[Any] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._strategy: Optional[Tuple[str, Callable]] = None

    # ------------------------------------------------------------ wrapping
    def _wrap(self, name: str, fn: Callable, sink: Optional[list] = None):
        if not self.trace:

            @functools.wraps(fn)
            def hooked(*args, **kwargs):
                result = fn(*args, **kwargs)
                if not self.paused:
                    sink.append(result)
                return result

            return hooked

        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span = [self.op, name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if sink is not None:
                sink.append(result)
            return result

        return traced

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        self._patch(
            StreamingMaintainer, "drain",
            self._wrap("cdc.drain", StreamingMaintainer.drain, self.drains),
        )
        self._patch(
            RefreshScheduler, "refresh_view",
            self._wrap(
                "resilience.refresh_view", RefreshScheduler.refresh_view,
                self.refreshes,
            ),
        )
        if not self.trace:
            return
        for span, module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapped = self._wrap(span, original)
            for name, module in sorted(sys.modules.items()):
                if name.split(".")[0] != "repro" or module is None:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)
        for span, owner, attr in METHODS:
            self._patch(owner, attr, self._wrap(span, owner.__dict__[attr]))
        # The registered Figure-9 selection strategy design() looks up.
        strategy = DesignConfig().strategy
        original = strategies.get_strategy(strategy)
        self._strategy = (strategy, original)
        strategies.register_strategy(strategy)(self._wrap("mvpp.select", original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._strategy is not None:
            strategies.register_strategy(self._strategy[0])(self._strategy[1])
            self._strategy = None

    def __enter__(self) -> "Instruments":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # ------------------------------------------------------------ analysis
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, inclusive and self seconds.

        Self time is a span's duration minus the time its child spans
        cover.  Inclusive time counts only spans not nested in a span of
        the same name, so recursion is not counted twice."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[4] >= 0:
                child_time[span[4]] += span[3] - span[2]
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"count": 0, "inclusive_s": 0.0, "self_s": 0.0}
        )
        for index, span in enumerate(self.spans):
            entry = out[span[1]]
            duration = span[3] - span[2]
            entry["count"] += 1
            entry["self_s"] += duration - child_time[index]
            if span[4] < 0 or self.spans[span[4]][1] != span[1]:
                entry["inclusive_s"] += duration
        return dict(out)

    def fallback_fraction(self, parent: str, child: str) -> float:
        """Share of ``parent`` spans with a direct ``child`` span."""
        parents = {
            index for index, span in enumerate(self.spans) if span[1] == parent
        }
        hit = {
            span[4]
            for span in self.spans
            if span[1] == child and span[4] in parents
        }
        return len(hit) / len(parents) if parents else 0.0

    def write(self, path: str, meta: Dict[str, Any]) -> None:
        """Write the spans out: one ``[op, name, start, end, parent]``
        list per span, times in seconds from the first span."""
        origin = self.spans[0][2] if self.spans else 0.0
        rows = [
            [op, name, round(start - origin, 9), round(end - origin, 9), parent]
            for op, name, start, end, parent in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"meta": meta, "fields": ["op", "name", "start", "end",
                                                "parent"], "spans": rows},
                      handle)
