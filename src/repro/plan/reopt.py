"""QEP-level plan revision: build/probe swapping of pending joins.

This is the concrete dynamic re-optimization the DQO applies when
collected runtime statistics (Section 3.1) invalidate a pending join's
orientation: the optimizer picked the build side from *estimates*; once
upstream blocking edges complete with observed sizes, a pending join may
turn out to have its larger input on the build side.  Swapping puts the
smaller input in memory and lets the larger one stream — a classic
mid-query re-optimization step (Kabra & DeWitt's [9] family), applicable
only while *both* chains touching the join are still untouched.

The transformation is pure: it takes a QEP and returns a new, validated
QEP; the runtime decides whether it may be applied (both chains pristine)
and rebuilds the affected fragments.
"""

from __future__ import annotations

from repro.common.errors import PlanError
from repro.plan.operators import JoinSpec, MatOp, Operator, ProbeOp
from repro.plan.qep import QEP, PipelineChain
from repro.plan.validation import validate_qep


def swap_join_sides(qep: QEP, join_name: str, tuple_size: int) -> QEP:
    """Return a new QEP with ``join_name``'s build and probe sides swapped.

    The chain that fed the join's build becomes the probing chain and
    inherits the downstream pipeline; the chain that probed it now
    terminates with the join's build mat.  Every other chain is reused
    unchanged.  The result cardinality of the join — and of everything
    downstream — is invariant under the swap.
    """
    try:
        old_join = qep.joins[join_name]
    except KeyError:
        raise PlanError(f"no join named {join_name!r}") from None
    feeder = qep.chain_feeding(old_join)      # X: ... -> mat[K]
    prober = qep.chain_probing(old_join)      # Y: ... -> probe[K] -> rest

    probe_index = next(i for i, op in enumerate(prober.operators)
                       if isinstance(op, ProbeOp) and op.join is old_join)

    new_join = JoinSpec(
        name=old_join.name,
        build_relations=old_join.probe_relations,
        probe_relations=old_join.build_relations,
        crossing_selectivity=old_join.crossing_selectivity,
        estimated_build_cardinality=old_join.estimated_probe_cardinality,
        estimated_probe_cardinality=old_join.estimated_build_cardinality,
        estimated_output_cardinality=old_join.estimated_output_cardinality,
        actual_build_cardinality=old_join.actual_probe_cardinality,
        actual_probe_cardinality=old_join.actual_build_cardinality,
        actual_output_cardinality=old_join.actual_output_cardinality,
        actual_fanout_factor=old_join.actual_fanout_factor)

    # New prober chain (old feeder): keep its prefix, append the probe
    # and the old prober's downstream pipeline.
    feeder_prefix = feeder.operators[:-1]  # everything before mat[K]
    upstream_out = (feeder_prefix[-1].estimated_output_cardinality
                    if feeder_prefix else 0.0)
    new_probe = ProbeOp(
        name=f"probe[{new_join.name}]",
        join=new_join,
        estimated_input_cardinality=upstream_out,
        estimated_output_cardinality=old_join.estimated_output_cardinality,
        memory_bytes=int(new_join.estimated_build_cardinality * tuple_size))
    downstream = [_rebind(op, old_join, new_join)
                  for op in prober.operators[probe_index + 1:]]
    new_prober_ops = feeder_prefix + [new_probe] + downstream
    new_prober = PipelineChain(feeder.name, feeder.source_relation,
                               new_prober_ops)

    # New feeder chain (old prober): keep its prefix, terminate with the
    # build mat.
    prober_prefix = prober.operators[:probe_index]
    prefix_out = (prober_prefix[-1].estimated_output_cardinality
                  if prober_prefix else 0.0)
    new_mat = MatOp(
        name=f"mat[{new_join.name}]",
        join=new_join,
        estimated_input_cardinality=prefix_out,
        estimated_output_cardinality=prefix_out,
        memory_bytes=int(new_join.estimated_build_cardinality * tuple_size))
    new_feeder = PipelineChain(prober.name, prober.source_relation,
                               prober_prefix + [new_mat])

    replaced = {feeder.name: new_prober, prober.name: new_feeder}
    chains = [replaced.get(chain.name, chain) for chain in qep.chains]
    joins = dict(qep.joins)
    joins[join_name] = new_join
    ordered = _topological_order(chains)
    new_qep = QEP(ordered, joins)
    validate_qep(new_qep)
    return new_qep


def _rebind(op: Operator, old_join: JoinSpec, new_join: JoinSpec) -> Operator:
    """Operators downstream of the swapped probe are reused as-is.

    They never reference the swapped join (it appears exactly once as a
    probe), so rebinding is the identity; the indirection documents the
    invariant and guards it.
    """
    if isinstance(op, (ProbeOp, MatOp)) and getattr(op, "join", None) is old_join:
        raise PlanError(f"operator {op.name!r} still references the "
                        "swapped join downstream of its probe")
    return op


def _topological_order(chains: list[PipelineChain]) -> list[PipelineChain]:
    """Stable topological order: ancestors before dependents.

    Preserves the original relative order among independent chains (the
    optimizer's iterator-order intent).
    """
    feeder_of: dict[str, PipelineChain] = {}
    for chain in chains:
        if chain.feeds is not None:
            feeder_of[chain.feeds.name] = chain

    ordered: list[PipelineChain] = []
    visiting: set[str] = set()
    placed: set[str] = set()

    def visit(chain: PipelineChain) -> None:
        if chain.name in placed:
            return
        if chain.name in visiting:
            raise PlanError(f"cyclic dependency through {chain.name!r}")
        visiting.add(chain.name)
        for join in chain.probe_joins():
            feeder = feeder_of.get(join.name)
            if feeder is None:
                raise PlanError(f"no chain feeds join {join.name!r}")
            visit(feeder)
        visiting.discard(chain.name)
        placed.add(chain.name)
        ordered.append(chain)

    for chain in chains:
        visit(chain)
    return ordered
