"""Random join-query generation.

Section 5.1.1 of the paper generates its experiment query "using the
algorithm of [14]" (Steinbrunn, Moerkotte, Kemper — randomized join-order
benchmarks).  This module reproduces that style of generator: acyclic join
graphs of configurable shape (chain, star, or random tree), with
cardinalities and selectivities drawn from configurable ranges.

Selectivities are drawn so that joining two relations along an edge yields
an output between a configurable fraction of the smaller input and the
product bound — keeping intermediate results "reasonable", as classical
join-order benchmarks do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.catalog.catalog import Catalog
from repro.catalog.schema import Attribute, Relation
from repro.catalog.statistics import JoinStatistics
from repro.common.errors import ConfigurationError
from repro.query.tree import Query

if TYPE_CHECKING:
    import numpy as np

_SHAPES = ("chain", "star", "tree")


@dataclass
class GeneratedWorkload:
    """A generated catalog plus the query over it."""

    catalog: Catalog
    query: Query

    @property
    def relation_names(self) -> list[str]:
        return self.query.relation_names


class QueryGenerator:
    """Generates random acyclic join queries.

    Parameters
    ----------
    rng:
        A seeded ``numpy.random.Generator``; all draws come from it.
    min_cardinality, max_cardinality:
        Uniform range for base-relation cardinalities.
    small_fraction:
        Fraction of relations drawn from a 10x smaller range (the paper's
        mix of "4 medium size and 2 small" relations).
    tuple_size:
        Bytes per tuple (paper: 40).
    """

    def __init__(self, rng: np.random.Generator, *,
                 min_cardinality: int = 100_000,
                 max_cardinality: int = 200_000,
                 small_fraction: float = 0.33,
                 tuple_size: int = 40):
        if min_cardinality <= 0 or max_cardinality < min_cardinality:
            raise ConfigurationError(
                f"bad cardinality range [{min_cardinality}, {max_cardinality}]")
        if not 0.0 <= small_fraction <= 1.0:
            raise ConfigurationError(
                f"small_fraction must be in [0, 1], got {small_fraction}")
        self.rng = rng
        self.min_cardinality = min_cardinality
        self.max_cardinality = max_cardinality
        self.small_fraction = small_fraction
        self.tuple_size = tuple_size

    def generate(self, num_relations: int, shape: str = "tree") -> GeneratedWorkload:
        """Generate a query over ``num_relations`` relations.

        ``shape`` selects the join-graph topology: ``"chain"``, ``"star"``
        or ``"tree"`` (random spanning tree).
        """
        if num_relations < 1:
            raise ConfigurationError(f"need >= 1 relation, got {num_relations}")
        if shape not in _SHAPES:
            raise ConfigurationError(f"shape must be one of {_SHAPES}, got {shape!r}")

        names = [self._relation_name(i) for i in range(num_relations)]
        relations = [self._make_relation(name) for name in names]
        stats = JoinStatistics()
        for a_idx, b_idx in self._edges(num_relations, shape):
            a, b = relations[a_idx], relations[b_idx]
            stats.set_selectivity(a.name, b.name, self._selectivity(a, b))
        catalog = Catalog(relations, stats, result_tuple_size=self.tuple_size)
        return GeneratedWorkload(catalog, Query(catalog, names))

    # -- internals ---------------------------------------------------------
    @staticmethod
    def _relation_name(index: int) -> str:
        # A, B, ..., Z, R26, R27, ...
        if index < 26:
            return chr(ord("A") + index)
        return f"R{index}"

    def _make_relation(self, name: str) -> Relation:
        if self.rng.random() < self.small_fraction:
            low, high = self.min_cardinality // 10, self.max_cardinality // 10
        else:
            low, high = self.min_cardinality, self.max_cardinality
        cardinality = int(self.rng.integers(low, high + 1))
        attributes = (Attribute(f"{name.lower()}_key"), Attribute(f"{name.lower()}_val"))
        return Relation(name, cardinality, self.tuple_size, attributes)

    def _edges(self, n: int, shape: str) -> list[tuple[int, int]]:
        if n == 1:
            return []
        if shape == "chain":
            return [(i, i + 1) for i in range(n - 1)]
        if shape == "star":
            return [(0, i) for i in range(1, n)]
        # Random tree: attach node i to a uniformly chosen earlier node.
        return [(int(self.rng.integers(0, i)), i) for i in range(1, n)]

    def _selectivity(self, a: Relation, b: Relation) -> float:
        """Selectivity keeping |a ⋈ b| between ~0.2x and ~2x of max input."""
        product = a.cardinality * b.cardinality
        larger = max(a.cardinality, b.cardinality)
        low = 0.2 * larger / product
        high = 2.0 * larger / product
        return float(min(1.0, self.rng.uniform(low, high)))
