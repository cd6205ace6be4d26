"""Query execution plans and their pipeline chains."""

from __future__ import annotations

from functools import cached_property
from typing import Any, Iterator, Optional

from repro.common.errors import PlanError
from repro.plan.chains import ancestor_closure
from repro.plan.operators import JoinSpec, MatOp, Operator, OutputOp, ProbeOp, ScanOp


class PipelineChain:
    """A maximal set of physical operators linked by pipelinable edges.

    The first operator consumes the chain's source (a wrapper relation);
    tuples then flow through the remaining operators one batch at a time.
    If the chain's output crosses a blocking edge, its last operator is a
    :class:`MatOp` and :attr:`feeds` names the join whose build side it
    fills; the root chain ends with :class:`OutputOp` instead.
    """

    def __init__(self, name: str, source_relation: str,
                 operators: list[Operator]):
        if not operators:
            raise PlanError(f"chain {name!r} has no operators")
        if not isinstance(operators[0], ScanOp):
            raise PlanError(f"chain {name!r} must start with a scan")
        self.name = name
        self.source_relation = source_relation
        self.operators = list(operators)

    # -- structure ---------------------------------------------------------
    @property
    def scan(self) -> ScanOp:
        """The source-consuming scan at the head of the chain."""
        return self.operators[0]  # type: ignore[return-value]

    @property
    def terminal(self) -> Operator:
        """The last operator (a MatOp, or OutputOp for the root chain)."""
        return self.operators[-1]

    @property
    def feeds(self) -> Optional[JoinSpec]:
        """The join whose build this chain fills, or None for the root chain."""
        terminal = self.terminal
        if isinstance(terminal, MatOp):
            return terminal.join
        return None

    @property
    def is_root(self) -> bool:
        """True for the chain that produces the final query result."""
        return isinstance(self.terminal, OutputOp)

    def probe_joins(self) -> list[JoinSpec]:
        """Joins probed inside this chain, in pipeline order."""
        return [op.join for op in self.operators if isinstance(op, ProbeOp)]

    # -- annotations -------------------------------------------------------
    @property
    def estimated_input_cardinality(self) -> float:
        """Tuples this chain pulls from its source."""
        return self.operators[0].estimated_input_cardinality

    @property
    def estimated_output_cardinality(self) -> float:
        """Tuples the chain's terminal operator receives/emits."""
        return self.operators[-1].estimated_output_cardinality

    def memory_requirement(self) -> int:
        """``Σ mem(op)`` over the chain (M-schedulability, Section 4.1)."""
        return sum(op.memory_bytes for op in self.operators)

    def __iter__(self) -> Iterator[Operator]:
        return iter(self.operators)

    def __len__(self) -> int:
        return len(self.operators)

    def describe(self) -> str:
        """One-line rendering, e.g. ``pA: scan(A) -> mat[J1]``."""
        parts = []
        for op in self.operators:
            if isinstance(op, ScanOp):
                parts.append(f"scan({op.relation})")
            elif isinstance(op, ProbeOp):
                parts.append(f"probe[{op.join.name}]")
            elif isinstance(op, MatOp):
                target = op.join.name if op.join else "temp"
                parts.append(f"mat[{target}]")
            elif isinstance(op, OutputOp):
                parts.append("output")
            else:
                parts.append(op.name)
        return f"{self.name}: " + " -> ".join(parts)

    def __repr__(self) -> str:
        return f"PipelineChain({self.describe()})"


class QEP:
    """A complete query execution plan.

    ``chains`` are stored in **iterator order** — the order a classical
    iterator-model engine would execute them (left-to-right recursion,
    Section 2.3); the sequential baseline executes them exactly in this
    order, and the dynamic scheduler uses it only as a tie-breaker.

    A plan is immutable once built (:func:`~repro.plan.reopt.swap_join_sides`
    returns a new one), so what every run of it would derive again is
    computed on first use and kept here; the plan sits below every run,
    so none of it is run state and none of it refers to a run.
    """

    def __init__(self, chains: list[PipelineChain], joins: dict[str, JoinSpec],
                 total_memory_estimate: Optional[int] = None):
        if not chains:
            raise PlanError("a QEP needs at least one chain")
        self.chains = list(chains)
        self.joins = dict(joins)
        self._by_name = {chain.name: chain for chain in self.chains}
        if len(self._by_name) != len(self.chains):
            raise PlanError("duplicate chain names in QEP")
        roots = [chain for chain in self.chains if chain.is_root]
        if len(roots) != 1:
            raise PlanError(f"QEP must have exactly one root chain, got {len(roots)}")
        self.root = roots[0]
        self.total_memory_estimate = (
            total_memory_estimate if total_memory_estimate is not None
            else self.peak_memory_estimate())
        #: filled by :func:`repro.core.fragments.compiled_chains`.
        self.compiled: dict[Any, Any] = {}

    @cached_property
    def closure(self) -> dict[str, set[str]]:
        """``ancestors*`` of each chain (Section 4.1), by chain name."""
        return ancestor_closure(self)

    @cached_property
    def dependents(self) -> dict[str, tuple[str, ...]]:
        """Chain name -> the chains whose ``ancestors*`` contain it, in
        iterator order: all a chain's completion can unblock."""
        return {chain.name: tuple(other.name for other in self.chains
                                  if chain.name in self.closure[other.name])
                for chain in self.chains}

    @cached_property
    def probing_chain(self) -> dict[str, str]:
        """Join name -> name of the chain whose probe consumes it."""
        return {name: self.chain_probing(join).name
                for name, join in self.joins.items()}

    @cached_property
    def chain_index(self) -> dict[str, int]:
        """Chain name -> position in iterator order."""
        return {chain.name: i for i, chain in enumerate(self.chains)}

    def chain(self, name: str) -> PipelineChain:
        try:
            return self._by_name[name]
        except KeyError:
            raise PlanError(f"no chain named {name!r}") from None

    def chain_feeding(self, join: JoinSpec) -> PipelineChain:
        """The chain whose terminal mat fills ``join``'s build side."""
        for chain in self.chains:
            if chain.feeds is join:
                return chain
        raise PlanError(f"no chain feeds join {join.name!r}")

    def chain_probing(self, join: JoinSpec) -> PipelineChain:
        """The chain containing ``join``'s probe operator."""
        for chain in self.chains:
            if join in chain.probe_joins():
                return chain
        raise PlanError(f"no chain probes join {join.name!r}")

    def source_relations(self) -> list[str]:
        """Source relation of each chain, in iterator order."""
        return [chain.source_relation for chain in self.chains]

    def peak_memory_estimate(self) -> int:
        """Upper bound on resident hash-table memory: all builds at once."""
        return sum(op.memory_bytes for chain in self.chains for op in chain)

    def describe(self) -> str:
        """Multi-line rendering of every chain plus the dependency edges."""
        lines = [chain.describe() for chain in self.chains]
        for chain in self.chains:
            if chain.feeds is not None:
                consumer = self.chain_probing(chain.feeds)
                lines.append(f"  {chain.name} --[{chain.feeds.name}]--> "
                             f"{consumer.name} (blocking)")
        return "\n".join(lines)

    def __iter__(self) -> Iterator[PipelineChain]:
        return iter(self.chains)

    def __len__(self) -> int:
        return len(self.chains)

    def __repr__(self) -> str:
        return f"QEP({len(self.chains)} chains, {len(self.joins)} joins)"
