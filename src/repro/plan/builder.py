"""Macro-expansion of a logical join tree into a physical QEP.

Convention: the **left** child of every join-tree node is the build
(blocking) side, the **right** child is the probe (pipelinable) side —
the optimizer orients the tree before handing it over.

The expansion of Section 2.2 falls out naturally:

* every leaf opens a new pipeline chain with a scan;
* a join terminates its build subtree's open chain with a ``mat`` (the
  hash-table build) and appends a probe operator to its probe subtree's
  open chain;
* the root chain ends with an output operator.

Chain order is iterator order: for each join, all build-side chains come
before the probe-side chains, which reproduces the paper's
``{pA, pB, pC, pD, pE}`` example.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional

from repro.catalog.catalog import Catalog
from repro.common.errors import PlanError
from repro.plan.operators import JoinSpec, MatOp, OutputOp, ProbeOp, ScanOp
from repro.plan.qep import QEP, PipelineChain
from repro.query.tree import JoinTree


def build_qep(catalog: Catalog, tree: JoinTree, *,
              actual_output_factors: Optional[Mapping[str, float]] = None,
              scan_selectivities: Optional[Mapping[str, float]] = None) -> QEP:
    """Expand ``tree`` into a QEP annotated with catalog estimates.

    Parameters
    ----------
    actual_output_factors:
        Optional per-join multipliers applied to the *actual* output
        cardinality (join name -> factor, finite and >= 0).  Estimates
        keep the catalog values; this is how workloads inject estimation
        error.
    scan_selectivities:
        Optional per-relation selectivity of a local selection applied by
        the scan (relation name -> selectivity in (0, 1]).
    """
    factors = dict(actual_output_factors or {})
    bad = {name: factor for name, factor in factors.items()
           if not (math.isfinite(factor) and factor >= 0)}
    if bad:
        raise PlanError(
            f"actual_output_factors must be finite and >= 0, got {bad}")
    scan_sels = dict(scan_selectivities or {})
    builder = _Builder(catalog, factors, scan_sels)
    qep = builder.build(tree)
    unknown = set(factors) - set(qep.joins)
    if unknown:
        raise PlanError(f"actual_output_factors for unknown joins: {sorted(unknown)}")
    return qep


class _Builder:
    def __init__(self, catalog: Catalog, factors: dict[str, float],
                 scan_sels: dict[str, float]):
        self.catalog = catalog
        self.factors = factors
        self.scan_sels = scan_sels
        self.joins: dict[str, JoinSpec] = {}
        self.closed_chains: list[PipelineChain] = []
        self._join_counter = 0

    def build(self, tree: JoinTree) -> QEP:
        open_chain = self._expand(tree)
        final_card = open_chain["cardinality"]
        open_chain["ops"].append(OutputOp(
            name="output",
            estimated_input_cardinality=final_card,
            estimated_output_cardinality=final_card))
        self._close(open_chain)
        return QEP(self.closed_chains, self.joins)

    # -- expansion ---------------------------------------------------------
    def _expand(self, tree: JoinTree) -> dict:
        """Return the open (still growing) chain for this subtree.

        The open chain is a mutable dict with the scan source, operator
        list, and running estimated/actual cardinalities of the pipeline.
        """
        if tree.is_leaf:
            return self._open_leaf_chain(tree.relation)

        build_chain = self._expand(tree.left)
        join = self._make_join(tree)
        self._terminate_with_build(build_chain, join)

        probe_chain = self._expand(tree.right)
        self._append_probe(probe_chain, join)
        return probe_chain

    def _open_leaf_chain(self, relation_name: str) -> dict:
        relation = self.catalog.relation(relation_name)
        selectivity = self.scan_sels.get(relation_name, 1.0)
        out_card = relation.cardinality * selectivity
        scan = ScanOp(
            name=f"scan({relation_name})",
            relation=relation_name,
            scan_selectivity=selectivity,
            estimated_input_cardinality=relation.cardinality,
            estimated_output_cardinality=out_card)
        return {
            "source": relation_name,
            "ops": [scan],
            "cardinality": out_card,          # estimated pipeline cardinality
            "actual_cardinality": out_card,   # actual, with injected errors
        }

    def _make_join(self, tree: JoinTree) -> JoinSpec:
        self._join_counter += 1
        name = f"J{self._join_counter}"
        build_rels = tree.left.relations()
        probe_rels = tree.right.relations()
        crossing = 1.0
        found_edge = False
        stats = self.catalog.statistics
        for a in build_rels:
            for b in probe_rels:
                if stats.has_edge(a, b):
                    crossing *= stats.selectivity(a, b)
                    found_edge = True
        if not found_edge:
            raise PlanError(f"join {name} between {build_rels} and {probe_rels} "
                            "has no join edge (cross product)")
        join = JoinSpec(
            name=name,
            build_relations=build_rels,
            probe_relations=probe_rels,
            crossing_selectivity=crossing,
            actual_fanout_factor=self.factors.get(name, 1.0))
        self.joins[name] = join
        return join

    def _terminate_with_build(self, chain: dict, join: JoinSpec) -> None:
        cardinality = chain["cardinality"]
        actual = chain["actual_cardinality"]
        tuple_size = self.catalog.result_tuple_size
        mat = MatOp(
            name=f"mat[{join.name}]",
            join=join,
            estimated_input_cardinality=cardinality,
            estimated_output_cardinality=cardinality,
            memory_bytes=int(cardinality * tuple_size))
        chain["ops"].append(mat)
        join.estimated_build_cardinality = cardinality
        join.actual_build_cardinality = actual
        self._close(chain)

    def _append_probe(self, chain: dict, join: JoinSpec) -> None:
        in_card = chain["cardinality"]
        actual_in = chain["actual_cardinality"]
        join.estimated_probe_cardinality = in_card
        join.actual_probe_cardinality = actual_in
        out_card = in_card * join.estimated_fanout()
        join.estimated_output_cardinality = out_card
        actual_out = actual_in * join.actual_fanout()
        join.actual_output_cardinality = actual_out
        tuple_size = self.catalog.result_tuple_size
        probe = ProbeOp(
            name=f"probe[{join.name}]",
            join=join,
            estimated_input_cardinality=in_card,
            estimated_output_cardinality=out_card,
            memory_bytes=int(join.estimated_build_cardinality * tuple_size))
        chain["ops"].append(probe)
        chain["cardinality"] = out_card
        chain["actual_cardinality"] = actual_out

    def _close(self, chain: dict) -> None:
        name = f"p{chain['source']}"
        if any(existing.name == name for existing in self.closed_chains):
            raise PlanError(f"relation {chain['source']!r} scanned twice")
        self.closed_chains.append(
            PipelineChain(name, chain["source"], chain["ops"]))
