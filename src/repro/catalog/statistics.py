"""Physical statistics used by the cost model.

The paper's cost framework (Section 4.1) needs, for every base relation:
its cardinality, its size in blocks, per-predicate *selection
selectivities* ``s`` and per-join-attribute *join selectivities* ``js``
(Table 1 of the paper).  This module stores those statistics and the
derivation rules for intermediate results.

Statistics are kept separate from the logical :class:`~repro.catalog.schema.Catalog`
so the same schema can be costed under several statistical assumptions
(what-if analysis, the paper's Table 1 versus measured data).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.errors import CatalogError, UnknownRelationError

#: Selectivity assumed for a selection predicate with no registered or
#: derivable statistics.  1/10 is the classic System-R default.
DEFAULT_SELECTION_SELECTIVITY = 0.1

#: Fraction of tuples assumed to satisfy a range predicate (<, <=, >, >=)
#: when min/max column statistics are unavailable.  System-R used 1/3.
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0


@dataclass(frozen=True)
class RelationStatistics:
    """Cardinality and physical size of one (base or derived) relation."""

    cardinality: int
    blocks: int

    def __post_init__(self) -> None:
        if self.cardinality < 0:
            raise CatalogError(f"negative cardinality: {self.cardinality}")
        if self.blocks < 0:
            raise CatalogError(f"negative block count: {self.blocks}")
        if self.cardinality > 0 and self.blocks == 0:
            raise CatalogError("non-empty relation cannot occupy zero blocks")

    @property
    def blocking_factor(self) -> float:
        """Average records per block; 1.0 for an empty relation."""
        if self.blocks == 0:
            return 1.0
        return self.cardinality / self.blocks

    def scaled(self, selectivity: float) -> "RelationStatistics":
        """Statistics of a selection keeping ``selectivity`` of the tuples.

        Block count shrinks proportionally (records per block unchanged),
        never below one block for a non-empty result.
        """
        if not 0.0 <= selectivity <= 1.0:
            raise CatalogError(f"selectivity out of range: {selectivity}")
        cardinality = int(math.ceil(self.cardinality * selectivity))
        blocks = blocks_for(cardinality, self.blocking_factor)
        return RelationStatistics(cardinality, blocks)


def blocks_for(cardinality: int, blocking_factor: float) -> int:
    """Blocks needed to hold ``cardinality`` records at ``blocking_factor``."""
    if cardinality <= 0:
        return 0
    return max(1, int(math.ceil(cardinality / max(blocking_factor, 1e-9))))


@dataclass(frozen=True)
class ColumnStatistics:
    """Per-column statistics used to derive selectivities.

    ``distinct_values`` drives equality selectivity (``1/V``) and the
    default join selectivity (``1/max(V_left, V_right)``); ``minimum`` and
    ``maximum`` drive range selectivities for numeric/date columns.
    """

    distinct_values: int
    minimum: Optional[Any] = None
    maximum: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.distinct_values <= 0:
            raise CatalogError(
                f"distinct_values must be positive, got {self.distinct_values}"
            )

    def equality_selectivity(self) -> float:
        return 1.0 / self.distinct_values

    def range_selectivity(self, op: str, value: Any) -> float:
        """Fraction of tuples with ``column <op> value``.

        Uses linear interpolation between min and max when both are known
        and numeric/date-like; otherwise falls back to the System-R default.
        """
        lo, hi = self.minimum, self.maximum
        if lo is None or hi is None:
            return DEFAULT_RANGE_SELECTIVITY
        try:
            span = _as_number(hi) - _as_number(lo)
            point = _as_number(value)
        except (TypeError, ValueError, AttributeError):
            return DEFAULT_RANGE_SELECTIVITY
        if span <= 0:
            return DEFAULT_RANGE_SELECTIVITY
        fraction_below = (point - _as_number(lo)) / span
        fraction_below = min(1.0, max(0.0, fraction_below))
        if op in ("<", "<="):
            return fraction_below
        if op in (">", ">="):
            return 1.0 - fraction_below
        return DEFAULT_RANGE_SELECTIVITY


def _as_number(value: Any) -> float:
    """Map a comparable value (number or date) onto the real line."""
    if isinstance(value, (int, float)):
        return float(value)
    # datetime.date supports toordinal(); anything else raises TypeError.
    return float(value.toordinal())


class StatisticsCatalog:
    """Registry of relation, column, and selectivity statistics.

    Explicit registrations (the paper's Table 1 route) always win over the
    derivation heuristics, which serve synthetic workloads where writing
    every selectivity by hand would be impractical.
    """

    def __init__(self, default_blocking_factor: float = 10.0):
        if default_blocking_factor <= 0:
            raise CatalogError("default blocking factor must be positive")
        self.default_blocking_factor = default_blocking_factor
        self._relations: Dict[str, RelationStatistics] = {}
        self._columns: Dict[str, ColumnStatistics] = {}
        # predicate signature -> selectivity (explicit, highest priority)
        self._predicate_selectivities: Dict[str, float] = {}
        # unordered qualified-attribute pair -> join selectivity
        self._join_selectivities: Dict[frozenset, float] = {}
        # qualified attribute -> histogram (numeric/date columns)
        self._histograms: Dict[str, "EquiWidthHistogram"] = {}
        # relation -> PartitionScheme (horizontal sharding; see
        # repro.distributed.partition)
        self._partitions: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def set_relation(
        self, name: str, cardinality: int, blocks: Optional[int] = None
    ) -> RelationStatistics:
        """Register cardinality/blocks for a base relation.

        When ``blocks`` is omitted it is derived from the catalog's default
        blocking factor.
        """
        if blocks is None:
            blocks = blocks_for(cardinality, self.default_blocking_factor)
        stats = RelationStatistics(cardinality, blocks)
        self._relations[name] = stats
        return stats

    def set_column(
        self,
        attribute: str,
        distinct_values: int,
        minimum: Optional[Any] = None,
        maximum: Optional[Any] = None,
    ) -> ColumnStatistics:
        """Register column statistics under a *qualified* attribute name."""
        stats = ColumnStatistics(distinct_values, minimum, maximum)
        self._columns[attribute] = stats
        return stats

    def set_predicate_selectivity(self, signature: str, selectivity: float) -> None:
        """Pin the selectivity of a predicate by its canonical signature.

        Signatures come from
        :func:`repro.algebra.signatures.expression_signature`; the paper
        example pins e.g. ``s(Division.city = 'LA') = 0.02`` this way.
        """
        if not 0.0 <= selectivity <= 1.0:
            raise CatalogError(f"selectivity out of range: {selectivity}")
        self._predicate_selectivities[signature] = selectivity

    def set_join_selectivity(
        self, attribute_a: str, attribute_b: str, selectivity: float
    ) -> None:
        """Pin the join selectivity of an equi-join attribute pair.

        ``|R join S| = js * |R| * |S|`` — the paper's ``js`` column of
        Table 1.  The pair is unordered.
        """
        if selectivity < 0.0 or selectivity > 1.0:
            raise CatalogError(f"join selectivity out of range: {selectivity}")
        self._join_selectivities[frozenset((attribute_a, attribute_b))] = selectivity

    def set_histogram(self, attribute: str, histogram: "EquiWidthHistogram") -> None:
        """Attach a histogram (qualified attribute name)."""
        self._histograms[attribute] = histogram

    def set_partition_scheme(self, scheme: "PartitionScheme") -> None:
        """Record a relation's horizontal partition scheme.

        The scheme rides with the statistics (the paper's Table-1 route)
        so cost calculators and what-if analyses see the same shard map
        the storage layer routes by.
        """
        self._partitions[scheme.relation] = scheme

    def partition_scheme(self, relation: str) -> Optional["PartitionScheme"]:
        return self._partitions.get(relation)

    def histogram(self, attribute: str) -> Optional["EquiWidthHistogram"]:
        return self._histograms.get(attribute)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    @property
    def relation_names(self) -> Tuple[str, ...]:
        """Names of every relation with registered statistics."""
        return tuple(self._relations)

    def relation(self, name: str) -> RelationStatistics:
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(name) from None

    def has_relation(self, name: str) -> bool:
        return name in self._relations

    def column(self, attribute: str) -> Optional[ColumnStatistics]:
        return self._columns.get(attribute)

    def predicate_selectivity(self, signature: str) -> Optional[float]:
        return self._predicate_selectivities.get(signature)

    def join_selectivity(
        self, attribute_a: str, attribute_b: str
    ) -> Optional[float]:
        return self._join_selectivities.get(frozenset((attribute_a, attribute_b)))

    def default_join_selectivity(
        self, attribute_a: str, attribute_b: str
    ) -> Optional[float]:
        """``1 / max(V(a), V(b))`` when both column statistics are known."""
        stats_a = self.column(attribute_a)
        stats_b = self.column(attribute_b)
        if stats_a is None or stats_b is None:
            return None
        return 1.0 / max(stats_a.distinct_values, stats_b.distinct_values)
