"""The experiment workload: the Figure 5 query execution plan.

Section 5.1.1: "a fairly simple query: a five-way join, with 4 medium
size (i.e., 100K-200K tuples) input relations and 2 small ones (i.e.,
10K-20K tuples).  The input relations are delivered by distinct
wrappers."

The figure itself is not reproduced in the text we work from, so the
plan is reconstructed from every structural constraint the paper states:

* six sources A..F, four medium (A, B, D, F) and two small (C, E);
* ``pA`` (transitively) blocks ``pB`` and ``pF``, "which represent
  approximately one half of the query execution" (Section 5.2);
* ``pC`` "does not block any other PC" (Section 5.2);
* bushy shape, produced by a classical DP optimizer.

The reconstruction:

    J5( build = J2( build = J1(build A, probe B), probe F ),
        probe = J4( build = J3(build E, probe D), probe C ) )

with pipeline chains (iterator order)::

    pA: scan(A) -> mat[J1]
    pB: scan(B) -> probe[J1] -> mat[J2]
    pF: scan(F) -> probe[J2] -> mat[J5]
    pE: scan(E) -> mat[J3]
    pD: scan(D) -> probe[J3] -> mat[J4]
    pC: scan(C) -> probe[J4] -> probe[J5] -> output
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.catalog.catalog import Catalog
from repro.catalog.schema import Relation
from repro.catalog.statistics import JoinStatistics
from repro.common.errors import ConfigurationError
from repro.plan.builder import build_qep
from repro.plan.qep import QEP
from repro.plan.validation import validate_qep
from repro.query.tree import JoinTree, Query

#: Base-relation cardinalities (paper: 4 medium 100K-200K, 2 small 10K-20K).
FIGURE5_CARDINALITIES = {
    "A": 100_000,
    "B": 150_000,
    "C": 20_000,
    "D": 120_000,
    "E": 10_000,
    "F": 180_000,
}

#: Target intermediate-result sizes, chosen to keep them moderate.
FIGURE5_INTERMEDIATES = {
    "J1": 100_000,   # A ⋈ B
    "J2": 120_000,   # J1 ⋈ F
    "J3": 60_000,    # E ⋈ D
    "J4": 30_000,    # J3 ⋈ C
    "J5": 50_000,    # J2 ⋈ J4 (the final result)
}


def _selectivities(cards: dict[str, int],
                   targets: dict[str, int]) -> dict[tuple[str, str], float]:
    """Join-edge selectivities hitting the target intermediate sizes."""
    return {
        ("A", "B"): targets["J1"] / (cards["A"] * cards["B"]),
        ("B", "F"): targets["J2"] / (targets["J1"] * cards["F"]),
        ("D", "E"): targets["J3"] / (cards["D"] * cards["E"]),
        ("C", "D"): targets["J4"] / (targets["J3"] * cards["C"]),
        ("C", "F"): targets["J5"] / (targets["J2"] * targets["J4"]),
    }


#: Selectivities of the full-size workload (kept as a public constant).
FIGURE5_SELECTIVITIES = {
    ("A", "B"): 100_000 / (100_000 * 150_000),
    ("B", "F"): 120_000 / (100_000 * 180_000),
    ("D", "E"): 60_000 / (120_000 * 10_000),
    ("C", "D"): 30_000 / (60_000 * 20_000),
    ("C", "F"): 50_000 / (120_000 * 30_000),
}


@dataclass
class Figure5Workload:
    """Catalog, query and QEP of the experiments' workload."""

    catalog: Catalog
    query: Query
    tree: JoinTree
    qep: QEP
    #: build parameters, recorded so a worker process (or a cache key)
    #: can reconstruct this exact workload from two numbers.
    scale: float = 1.0
    tuple_size: int = 40

    @property
    def relation_names(self) -> list[str]:
        return self.query.relation_names


def figure5_workload(tuple_size: int = 40,
                     scale: float = 1.0) -> Figure5Workload:
    """Build the (reconstructed) Figure 5 workload.

    ``scale`` shrinks (or grows) every base relation and intermediate
    result proportionally — handy for fast tests; 1.0 is the paper size.
    """
    if not 0 < scale < math.inf:
        raise ConfigurationError(
            f"scale must be a positive finite number, got {scale}")
    cards = {name: max(1, round(card * scale))
             for name, card in FIGURE5_CARDINALITIES.items()}
    targets = {name: max(1, round(card * scale))
               for name, card in FIGURE5_INTERMEDIATES.items()}
    relations = [Relation(name, cardinality, tuple_size)
                 for name, cardinality in cards.items()]
    statistics = JoinStatistics(_selectivities(cards, targets))
    catalog = Catalog(relations, statistics, result_tuple_size=tuple_size)
    query = Query(catalog, list(FIGURE5_CARDINALITIES))

    leaf = JoinTree.leaf
    join = JoinTree.join
    left = join(join(leaf("A"), leaf("B")), leaf("F"))
    right = join(join(leaf("E"), leaf("D")), leaf("C"))
    tree = join(left, right)

    qep = build_qep(catalog, tree)
    validate_qep(qep)
    return Figure5Workload(catalog, query, tree, qep,
                           scale=scale, tuple_size=tuple_size)
