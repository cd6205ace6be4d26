"""The catalog: relations plus join statistics, with derived estimates."""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.catalog.schema import Relation
from repro.catalog.statistics import JoinStatistics, estimate_join_cardinality
from repro.common.errors import CatalogError


class Catalog:
    """All schema and statistics knowledge available to the mediator."""

    def __init__(self, relations: Iterable[Relation] = (),
                 statistics: JoinStatistics | None = None,
                 result_tuple_size: int = 40):
        self._relations: dict[str, Relation] = {}
        self.statistics = statistics if statistics is not None else JoinStatistics()
        if result_tuple_size <= 0:
            raise CatalogError(f"result tuple size must be positive, "
                               f"got {result_tuple_size}")
        #: size of intermediate/result tuples; the paper uses one flat
        #: 40-byte tuple format everywhere, so we default to the same.
        self.result_tuple_size = result_tuple_size
        for relation in relations:
            self.add_relation(relation)

    # -- relations -----------------------------------------------------------
    def add_relation(self, relation: Relation) -> None:
        if relation.name in self._relations:
            raise CatalogError(f"relation {relation.name!r} already registered")
        self._relations[relation.name] = relation

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise CatalogError(f"unknown relation {name!r}") from None

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    # -- statistics -------------------------------------------------------
    def estimate_cardinality(self, relations: Iterable[str]) -> float:
        """Estimated output cardinality of joining ``relations``."""
        cards = {name: rel.cardinality for name, rel in self._relations.items()}
        return estimate_join_cardinality(cards, self.statistics, relations)

    def estimate_size_bytes(self, relations: Iterable[str]) -> float:
        """Estimated output size in bytes of joining ``relations``."""
        return self.estimate_cardinality(relations) * self.result_tuple_size

    def __repr__(self) -> str:
        return (f"Catalog({len(self)} relations, "
                f"{len(self.statistics)} join edges)")
