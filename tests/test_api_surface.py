"""API-surface tests: public helpers, renderings and exports."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import repro
from repro.plan.operators import JoinSpec


# --------------------------------------------------------------------------
# Package exports
# --------------------------------------------------------------------------

def test_version_string():
    assert repro.__version__.count(".") == 2


#: every package whose ``__init__`` resolves its exports on first access.
LAZY_PACKAGES = ("repro", "repro.catalog", "repro.core", "repro.experiments",
                 "repro.mediator", "repro.observability", "repro.optimizer",
                 "repro.parallel", "repro.plan", "repro.query",
                 "repro.resources", "repro.service", "repro.sim",
                 "repro.wrappers")


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_lazy_exports_are_the_objects_their_modules_define(name):
    package = importlib.import_module(name)
    listed = dir(package)
    exported = []
    for module, names in package._EXPORTS.items():
        owner = importlib.import_module(f"{name}.{module}")
        for export in names:
            value = getattr(package, export)
            assert value is getattr(owner, export), export
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == owner.__name__, export
            assert export in listed, export
            exported.append(export)
    assert package.__all__ == exported


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_the_type_checker_sees_every_lazy_export(name):
    """The ``if TYPE_CHECKING:`` imports of a lazy ``__init__`` bind
    exactly its exports: the type checker resolves them statically."""
    package = importlib.import_module(name)
    tree = ast.parse(Path(package.__file__).read_text())
    (block,) = [node for node in tree.body if isinstance(node, ast.If)
                and ast.unparse(node.test) == "TYPE_CHECKING"]
    imported = [alias.asname or alias.name for node in block.body
                for alias in node.names]
    assert sorted(imported) == sorted(package.__all__)


# --------------------------------------------------------------------------
# Plan renderings and helpers
# --------------------------------------------------------------------------

def test_qep_describe_lists_chains_and_edges(small_qep):
    text = small_qep.describe()
    for chain in small_qep.chains:
        assert chain.name in text
    assert "(blocking)" in text


def test_qep_peak_memory_estimate(small_qep):
    # Upper bound: sum of every operator's memory annotation.
    expected = sum(op.memory_bytes for chain in small_qep.chains
                   for op in chain)
    assert small_qep.peak_memory_estimate() == expected


def test_joinspec_str():
    join = JoinSpec("J1", ("R",), ("S", "T"), crossing_selectivity=0.01)
    text = str(join)
    assert "J1" in text and "build={R}" in text and "probe={S,T}" in text


def test_chain_iteration_and_len(small_qep):
    chain = small_qep.chain("pS")
    assert len(list(chain)) == len(chain) == 3


def test_qep_len_and_iter(small_qep):
    assert len(small_qep) == 3
    assert [c.name for c in small_qep] == ["pR", "pS", "pT"]


# --------------------------------------------------------------------------
# Result renderings
# --------------------------------------------------------------------------

def test_execution_result_dataclass_fields(tiny_fig5):
    from repro import (QueryEngine, SimulationParameters, UniformDelay,
                       make_policy)
    params = SimulationParameters()
    delays = {n: UniformDelay(params.w_min) for n in tiny_fig5.relation_names}
    result = QueryEngine(tiny_fig5.catalog, tiny_fig5.qep,
                         make_policy("SEQ"), delays, params=params,
                         seed=1).run()
    # The contract downstream tooling relies on.
    assert result.strategy == "SEQ"
    assert result.planning_phases > 0
    assert result.batches_processed > 0
    assert result.memory_peak_bytes > 0
    assert isinstance(result.reopt_opportunities, list)
    assert result.statistics is not None


def test_symmetric_result_summary(tiny_fig5):
    from repro import SimulationParameters, SymmetricHashJoinEngine, UniformDelay
    params = SimulationParameters()
    delays = {n: UniformDelay(params.w_min) for n in tiny_fig5.relation_names}
    result = SymmetricHashJoinEngine(tiny_fig5.catalog, tiny_fig5.tree,
                                     delays, params=params, seed=1).run()
    text = result.summary()
    assert "DPHJ" in text and "MB" in text
