"""Logical query model: query graphs, join trees, random query generation.

A :class:`Query` is a set of relations joined along the edges recorded in
the catalog's :class:`~repro.catalog.JoinStatistics`.  The optimizer turns
a query into a (bushy) :class:`JoinTree` — the "query tree" of Figure 2 of
the paper — which the plan builder then macro-expands into a physical QEP.
"""

from typing import TYPE_CHECKING

from repro.lazy import lazy_exports

_EXPORTS = {
    "tree": ("JoinTree", "Query"),
    "generator": ("GeneratedWorkload", "QueryGenerator"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

if TYPE_CHECKING:
    from repro.query.tree import JoinTree, Query
    from repro.query.generator import GeneratedWorkload, QueryGenerator
