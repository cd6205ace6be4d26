"""Catalog: relations, attributes and statistics.

The evaluation methodology of the paper is content-free — "query execution
does not depend on relation content and it can be simply studied by setting
relation parameters (cardinality and selectivity)".  The catalog therefore
stores exactly those parameters, plus enough structure (attributes, join
edges) for the optimizer and plan builder to work with.
"""

from typing import TYPE_CHECKING

from repro.lazy import lazy_exports

_EXPORTS = {
    "schema": ("Attribute", "Relation"),
    "statistics": ("JoinStatistics", "estimate_join_cardinality"),
    "catalog": ("Catalog",),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

if TYPE_CHECKING:
    from repro.catalog.schema import Attribute, Relation
    from repro.catalog.statistics import JoinStatistics, estimate_join_cardinality
    from repro.catalog.catalog import Catalog
