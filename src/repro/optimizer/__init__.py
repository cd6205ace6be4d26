"""Classical compile-time optimizer.

The paper's experiment query "was generated using the algorithm of [14]
and optimized in a classical dynamic programming query optimizer"
(Section 5.1.1).  This package provides exactly that: a cost model priced
in CPU instructions (:mod:`repro.optimizer.cost`) and a dynamic-programming
enumerator over connected sub-queries producing bushy hash-join trees
(:mod:`repro.optimizer.dp`).
"""

from typing import TYPE_CHECKING

from repro.lazy import lazy_exports

_EXPORTS = {
    "cost": ("CostModel", "OperatorCosts"),
    "dp": ("DynamicProgrammingOptimizer",),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

if TYPE_CHECKING:
    from repro.optimizer.cost import CostModel, OperatorCosts
    from repro.optimizer.dp import DynamicProgrammingOptimizer
