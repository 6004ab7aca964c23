"""Execution engine: logical plans lowered to physical operators.

Two layers make up the public executor API (see ``docs/api.md`` for the
stability contract):

* the **engine** (:class:`ExecutionEngine`, :class:`Database`) with its
  engine selector (:data:`VECTORIZED` / :data:`REFERENCE`) and join
  methods, and
* the **physical operator protocol**
  (:class:`~repro.executor.physical.PhysicalOperator` and its concrete
  operators, :class:`~repro.executor.batch.Batch`,
  :class:`~repro.executor.physical.PhysicalPlanner`,
  :class:`~repro.executor.physical.BuildSideCache`).

To run one operator over stored tables, build it over
:func:`~repro.executor.physical.scan_of` leaves and drive it with
:func:`~repro.executor.physical.execute_operator`.
"""

from repro.executor.batch import Batch, DEFAULT_BATCH_SIZE
from repro.executor.engine import (
    ENGINES,
    HASH,
    INDEX_NESTED_LOOP,
    JOIN_METHODS,
    NESTED_LOOP,
    REFERENCE,
    SORT_MERGE,
    VECTORIZED,
    Database,
    ExecutionEngine,
    load_database,
)
from repro.executor.physical import (
    BuildSideCache,
    ExecutionContext,
    Filter,
    HashAggregate,
    HashJoin,
    IndexNestedLoopJoin,
    LimitOperator,
    MergeJoin,
    NestedLoopJoin,
    PhysicalOperator,
    PhysicalPlanner,
    Projection,
    Scan,
    SortOperator,
    charge_materialize,
    execute_operator,
    scan_of,
)

__all__ = [
    "Batch",
    "BuildSideCache",
    "DEFAULT_BATCH_SIZE",
    "Database",
    "ENGINES",
    "ExecutionContext",
    "ExecutionEngine",
    "Filter",
    "HASH",
    "HashAggregate",
    "HashJoin",
    "INDEX_NESTED_LOOP",
    "IndexNestedLoopJoin",
    "JOIN_METHODS",
    "LimitOperator",
    "MergeJoin",
    "NESTED_LOOP",
    "NestedLoopJoin",
    "PhysicalOperator",
    "PhysicalPlanner",
    "Projection",
    "REFERENCE",
    "SORT_MERGE",
    "Scan",
    "SortOperator",
    "VECTORIZED",
    "charge_materialize",
    "execute_operator",
    "scan_of",
    "load_database",
]
