"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog import Catalog, JoinStatistics, Relation
from repro.common.rng import RandomStreams, derive_seed
from repro.common.units import bytes_to_pages
from repro.optimizer import CostModel, DynamicProgrammingOptimizer
from repro.plan import ancestor_closure, build_qep, validate_qep
from repro.plan.operators import MatOp, OutputOp
from repro.query import JoinTree, Query, QueryGenerator
from repro.sim import LRUPageCache, Simulator, WelfordStat
from repro.resources import MemoryLease
from repro.mediator.queues import Message, SourceQueue


# --------------------------------------------------------------------------
# Units & RNG
# --------------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=10**12),
       st.integers(min_value=1, max_value=10**6))
def test_bytes_to_pages_is_ceiling(num_bytes, page_size):
    pages = bytes_to_pages(num_bytes, page_size)
    assert pages * page_size >= num_bytes
    assert (pages - 1) * page_size < num_bytes or pages == 0


@given(st.integers(min_value=0, max_value=2**31), st.text(max_size=30))
def test_derive_seed_stable_and_in_range(root, label):
    seed = derive_seed(root, label)
    assert seed == derive_seed(root, label)
    assert 0 <= seed < 2**64


@given(st.integers(min_value=0, max_value=1000))
def test_random_streams_independent(root):
    streams = RandomStreams(root)
    a_first = streams.stream("a").random(3).tolist()
    # Drawing from "b" must not perturb "a"'s continuation.
    streams.stream("b").random(100)
    a_more = streams.stream("a").random(3).tolist()
    fresh = RandomStreams(root)
    expected = fresh.stream("a").random(6).tolist()
    assert a_first + a_more == pytest.approx(expected)


# --------------------------------------------------------------------------
# Simulator determinism / monotonic clock
# --------------------------------------------------------------------------

@given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                          allow_nan=False), min_size=1, max_size=30))
def test_clock_monotonic_under_any_timeouts(delays):
    sim = Simulator()
    observed = []

    def waiter(delay):
        yield sim.timeout(delay)
        observed.append(sim.now)

    for delay in delays:
        sim.process(waiter(delay))
    sim.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)


# --------------------------------------------------------------------------
# LRU cache invariants
# --------------------------------------------------------------------------

@given(st.integers(min_value=1, max_value=16),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 20)),
                max_size=200))
def test_cache_never_exceeds_capacity(capacity, operations):
    cache = LRUPageCache(capacity)
    for extent, page in operations:
        cache.insert(extent, page)
        assert len(cache) <= capacity
        assert cache.lookup(extent, page)  # just inserted: must be resident


@given(st.integers(min_value=2, max_value=8),
       st.lists(st.integers(0, 30), min_size=1, max_size=100))
def test_cache_eviction_is_lru_order(capacity, pages):
    cache = LRUPageCache(capacity)
    for page in pages:
        cache.insert(0, page)
    resident = list(cache._pages)
    # The most recently inserted page is at the MRU end.
    assert resident[-1] == (0, pages[-1])


# --------------------------------------------------------------------------
# Welford matches numpy
# --------------------------------------------------------------------------

@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=2, max_size=100))
def test_welford_matches_numpy(values):
    stat = WelfordStat()
    for value in values:
        stat.record(value)
    assert stat.mean == pytest.approx(np.mean(values), rel=1e-9, abs=1e-6)
    assert stat.variance == pytest.approx(np.var(values, ddof=1),
                                          rel=1e-6, abs=1e-6)


# --------------------------------------------------------------------------
# Memory manager conservation
# --------------------------------------------------------------------------

@given(st.lists(st.tuples(st.sampled_from(["reserve", "release", "grow"]),
                          st.integers(0, 10), st.integers(0, 500)),
                max_size=100))
def test_memory_conservation(operations):
    memory = MemoryLease(10_000)
    held = {}
    for op, owner_id, amount in operations:
        owner = f"o{owner_id}"
        if op == "reserve" and owner not in held:
            if memory.would_fit(amount):
                memory.reserve(owner, amount)
                held[owner] = amount
        elif op == "release" and owner in held:
            memory.release(owner)
            del held[owner]
        elif op == "grow" and owner in held:
            if memory.try_grow(owner, amount):
                held[owner] += amount
        assert memory.used_bytes == sum(held.values())
        assert 0 <= memory.used_bytes <= memory.total_bytes


# --------------------------------------------------------------------------
# Source queue conservation
# --------------------------------------------------------------------------

@given(st.lists(st.tuples(st.booleans(), st.integers(1, 500)),
                min_size=1, max_size=100))
def test_queue_tuple_conservation(operations):
    sim = Simulator()
    queue = SourceQueue(sim, "W", capacity_messages=1000)
    put_total = 0
    taken_total = 0
    for is_put, amount in operations:
        if is_put:
            queue.put(Message(amount))
            put_total += amount
        else:
            taken_total += queue.take_batch(amount)
    assert queue.tuples_available == put_total - taken_total
    assert taken_total <= put_total


# --------------------------------------------------------------------------
# Query generator / plan / optimizer invariants
# --------------------------------------------------------------------------

@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=1, max_value=8),
       st.sampled_from(["chain", "star", "tree"]),
       st.integers(min_value=0, max_value=10_000))
def test_generated_plans_always_validate(num_relations, shape, seed):
    gen = QueryGenerator(np.random.default_rng(seed),
                         min_cardinality=100, max_cardinality=10_000)
    workload = gen.generate(num_relations, shape=shape)
    tree = DynamicProgrammingOptimizer(
        CostModel(workload.catalog)).optimize(workload.query)
    qep = build_qep(workload.catalog, tree)
    validate_qep(qep)
    # Exactly one chain per relation, each relation scanned once.
    assert sorted(qep.source_relations()) == sorted(workload.relation_names)
    # Ancestor closure is acyclic and the root depends on every other chain.
    closure = ancestor_closure(qep)
    root_deps = closure[qep.root.name]
    assert root_deps == {c.name for c in qep.chains} - {qep.root.name}


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=2, max_value=7),
       st.integers(min_value=0, max_value=10_000))
def test_optimizer_never_worse_than_left_deep(num_relations, seed):
    gen = QueryGenerator(np.random.default_rng(seed),
                         min_cardinality=100, max_cardinality=10_000)
    workload = gen.generate(num_relations, shape="chain")
    model = CostModel(workload.catalog)
    best = DynamicProgrammingOptimizer(model).optimize(workload.query)
    left_deep = JoinTree.left_deep(workload.relation_names)
    assert model.tree_cost(best) <= model.tree_cost(left_deep) * (1 + 1e-9)


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=10_000))
def test_plan_estimates_conserve_cardinality(num_relations, seed):
    """The root chain's output estimate equals the catalog estimate."""
    gen = QueryGenerator(np.random.default_rng(seed),
                         min_cardinality=100, max_cardinality=10_000)
    workload = gen.generate(num_relations, shape="tree")
    tree = DynamicProgrammingOptimizer(
        CostModel(workload.catalog)).optimize(workload.query)
    qep = build_qep(workload.catalog, tree)
    expected = workload.catalog.estimate_cardinality(workload.relation_names)
    assert qep.root.estimated_output_cardinality == pytest.approx(
        expected, rel=1e-9)


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=2, max_value=6),
       st.integers(min_value=0, max_value=1000))
def test_chain_terminals_are_mat_or_output(num_relations, seed):
    gen = QueryGenerator(np.random.default_rng(seed),
                         min_cardinality=100, max_cardinality=1000)
    workload = gen.generate(num_relations, shape="tree")
    tree = DynamicProgrammingOptimizer(
        CostModel(workload.catalog)).optimize(workload.query)
    qep = build_qep(workload.catalog, tree)
    for chain in qep.chains:
        assert isinstance(chain.terminal, (MatOp, OutputOp))
        # A mat before every blocking edge (Section 2.2).
        if not chain.is_root:
            assert isinstance(chain.terminal, MatOp)
            assert chain.terminal.join is not None
