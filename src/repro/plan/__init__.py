"""Physical plan model.

A :class:`QEP` is the macro-expansion of a logical join tree into physical
operators (Section 2.2 of the paper): scans, asymmetric hash joins (one
blocking build input, one pipelinable probe input) and explicit ``mat``
operators before every blocking edge.  The QEP decomposes into maximal
**pipeline chains** (PCs); blocking edges induce the dependency
constraints the dynamic scheduler works with.
"""

from typing import TYPE_CHECKING

from repro.lazy import lazy_exports

_EXPORTS = {
    "operators": (
        "MatOp", "Operator", "OutputOp", "ProbeOp", "ScanOp", "JoinSpec",
    ),
    "qep": ("QEP", "PipelineChain"),
    "builder": ("build_qep",),
    "chains": ("ancestor_closure", "direct_ancestors", "iterator_order"),
    "validation": ("validate_qep",),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

if TYPE_CHECKING:
    from repro.plan.operators import (
        MatOp,
        Operator,
        OutputOp,
        ProbeOp,
        ScanOp,
        JoinSpec,
    )
    from repro.plan.qep import QEP, PipelineChain
    from repro.plan.builder import build_qep
    from repro.plan.chains import (
        ancestor_closure,
        direct_ancestors,
        iterator_order,
    )
    from repro.plan.validation import validate_qep
