"""What a plan compiles once must equal what a run would derive itself.

Planning (ISSUE 24) reads three things it used to recompute every phase:
the plan's cached dependency facts (``QEP.closure`` / ``probing_chain`` /
``chain_index``), the set-algebra C-schedulability and CF work-list on
``QueryRuntime``, and every fragment's compiled facts.  Each is checked
here against the paper's definition written out naively, over random
degradation / MF-stop / completion orders on the Figure 5 plan.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.config import SimulationParameters
from repro.core.fragments import (
    CompiledSegment,
    FragmentKind,
    FragmentStatus,
    compiled_chains,
)
from repro.core.metrics import chain_cpu_seconds_per_source_tuple
from repro.core.runtime import QueryRuntime, World
from repro.experiments import figure5_workload
from repro.plan.operators import MatOp, OutputOp, ProbeOp
from repro.plan.reopt import swap_join_sides

WORKLOAD = figure5_workload(scale=0.02)
CHAINS = [chain.name for chain in WORKLOAD.qep.chains]


def make_runtime(qep=None, **overrides):
    params = SimulationParameters().with_overrides(**overrides)
    world = World(params, seed=5)
    qep = qep if qep is not None else figure5_workload(scale=0.02).qep
    for name in qep.source_relations():
        world.cm.register_source(name)
    return QueryRuntime(world, qep)


# --------------------------------------------------------------------------
# The paper's definitions, written out naively
# --------------------------------------------------------------------------

def naive_ancestors(qep, chain_name, seen=()):
    """``ancestors*(p)``: every chain feeding a join ``p`` probes, and
    theirs (Section 4.1)."""
    result = set()
    for join in qep.chain(chain_name).probe_joins():
        feeder = next(chain.name for chain in qep.chains
                      if chain.feeds is not None
                      and chain.feeds.name == join.name)
        assert feeder not in seen
        result |= {feeder} | naive_ancestors(qep, feeder, seen + (chain_name,))
    return result


def naive_c_schedulable(runtime, fragment):
    if fragment.status is FragmentStatus.DONE or fragment.suspended:
        return False
    chain_name = fragment.chain.name
    siblings = runtime.chain_fragments[chain_name]
    ancestors_done = all(
        name in runtime.completed_chains
        for name in naive_ancestors(runtime.qep, chain_name))
    if fragment.kind is FragmentKind.MATERIALIZATION:
        return True
    if fragment.kind is FragmentKind.COMPLEMENT:
        return siblings[0].status is FragmentStatus.DONE and ancestors_done
    if fragment.kind is FragmentKind.CONTINUATION:
        return all(f.status is FragmentStatus.DONE
                   for f in siblings[:siblings.index(fragment)])
    return ancestors_done


def naive_chains_owed_a_cf(runtime):
    """Degraded chains whose MF is done and that have no CF yet, in plan
    order — what ``advance_degraded_chains`` must create, and only that."""
    owed = []
    for chain in runtime.qep.chains:
        if chain.name not in runtime.degraded_chains:
            continue
        fragments = runtime.chain_fragments[chain.name]
        if (fragments[0].status is FragmentStatus.DONE
                and not any(f.kind is FragmentKind.COMPLEMENT
                            for f in fragments)):
            owed.append(chain.name)
    return owed


def assert_compiled_facts(fragment, params):
    """Every compiled attribute equals its recomputation from the
    operator list the fragment says it runs."""
    operators = fragment.operators
    terminal = operators[-1]
    builds = (terminal.join.name
              if isinstance(terminal, MatOp) and terminal.join is not None
              else None)
    assert fragment.builds_join == builds
    assert fragment.writes_temp == (isinstance(terminal, MatOp)
                                    and terminal.join is None)
    assert (fragment._sink_kind == "output") == isinstance(terminal, OutputOp)
    assert list(fragment.probed_joins) == [
        op.join.name for op in operators if isinstance(op, ProbeOp)]
    assert fragment.cpu_per_tuple == chain_cpu_seconds_per_source_tuple(
        operators, params)
    assert fragment.local_cpu_per_tuple == \
        chain_cpu_seconds_per_source_tuple(operators, params,
                                           include_receive=False)
    assert fragment.terminal is terminal


# --------------------------------------------------------------------------
# Random lifecycles on the Figure 5 plan
# --------------------------------------------------------------------------

class PlanningMachine(RuleBasedStateMachine):
    """Degrade, stop, finish and advance in any order the runtime
    allows; statuses are set directly (no kernel runs), which is all
    C-schedulability and the CF work-list read."""

    @initialize()
    def setup(self):
        self.runtime = make_runtime()

    def _finish(self, fragment):
        fragment.status = FragmentStatus.DONE
        siblings = self.runtime.chain_fragments[fragment.chain.name]
        if all(f.status is FragmentStatus.DONE for f in siblings):
            self.runtime.completed_chains.add(fragment.chain.name)

    @rule(name=st.sampled_from(CHAINS))
    def degrade(self, name):
        runtime = self.runtime
        pc = runtime.fragments[name]
        if (name in runtime.degraded_chains
                or pc.status is not FragmentStatus.PENDING):
            return
        mf = runtime.degrade_chain(runtime.qep.chain(name))
        assert mf.kind is FragmentKind.MATERIALIZATION and pc.suspended

    @rule(name=st.sampled_from(CHAINS))
    def stop_materialization(self, name):
        runtime = self.runtime
        if name in runtime.degraded_chains:
            runtime.request_stop_materialization(runtime.qep.chain(name))

    @rule(data=st.data())
    def finish_a_schedulable_fragment(self, data):
        runnable = [f for f in self.runtime.live_fragments()
                    if naive_c_schedulable(self.runtime, f)]
        if runnable:
            self._finish(data.draw(st.sampled_from(runnable)))

    @rule()
    def advance(self):
        runtime = self.runtime
        expected = naive_chains_owed_a_cf(runtime)
        created = runtime.advance_degraded_chains()
        assert [cf.chain.name for cf in created] == expected
        for cf in created:
            assert cf.kind is FragmentKind.COMPLEMENT
            assert runtime.chain_fragments[cf.chain.name][1] is cf
            assert not runtime.fragments[cf.chain.name].suspended
        # Nothing is owed twice.
        assert runtime.advance_degraded_chains() == []

    @invariant()
    def set_algebra_agrees_with_the_definition(self):
        runtime = self.runtime
        for name in CHAINS:
            assert runtime.closure[name] == naive_ancestors(runtime.qep, name)
            assert runtime.ancestors_done(name) == all(
                ancestor in runtime.completed_chains
                for ancestor in naive_ancestors(runtime.qep, name))
        for fragment in runtime.fragments.values():
            assert (runtime.is_c_schedulable(fragment)
                    == naive_c_schedulable(runtime, fragment)), fragment

    @invariant()
    def compiled_facts_hold_for_every_fragment(self):
        for fragment in self.runtime.fragments.values():
            assert_compiled_facts(fragment, self.runtime.world.params)


PlanningMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None)
TestPlanningLifecycles = PlanningMachine.TestCase


# --------------------------------------------------------------------------
# The plan's cached facts
# --------------------------------------------------------------------------

def test_the_plan_answers_what_a_run_used_to_derive():
    qep = WORKLOAD.qep
    assert qep.closure == {name: naive_ancestors(qep, name)
                           for name in CHAINS}
    assert qep.chain_index == {name: i for i, name in enumerate(CHAINS)}
    assert qep.probing_chain == {
        name: qep.chain_probing(join).name
        for name, join in qep.joins.items()}
    # Computed once: every run reads the same objects.
    assert qep.closure is qep.closure
    first, second = make_runtime(qep), make_runtime(qep)
    assert first.closure is second.closure is qep.closure
    assert first.compiled is second.compiled


@settings(max_examples=25, deadline=None)
@given(mips=st.sampled_from([30.0, 100.0, 10_000.0]),
       search=st.integers(min_value=1, max_value=500),
       move=st.integers(min_value=1, max_value=500),
       produce=st.integers(min_value=1, max_value=500),
       message=st.integers(min_value=1, max_value=50_000),
       pages=st.integers(min_value=1, max_value=4))
def test_a_compiled_chain_is_keyed_by_every_constant_it_reads(
        mips, search, move, produce, message, pages):
    """One plan serves runs under different parameters: a run never
    reads a ``c_p`` or a step cost compiled under another's."""
    qep = WORKLOAD.qep
    params = SimulationParameters().with_overrides(
        cpu_mips=mips, hash_search_instructions=search,
        move_tuple_instructions=move, produce_tuple_instructions=produce,
        message_instructions=message, message_pages=pages)
    chains = compiled_chains(qep, params)
    assert compiled_chains(qep, params) is chains
    for chain in qep.chains:
        fresh = CompiledSegment(chain.name, chain.name, chain.operators,
                                params)
        served = chains[chain.name]
        for field in CompiledSegment.__slots__:
            assert getattr(served, field) == getattr(fresh, field), field
        assert served.cpu_per_tuple == chain_cpu_seconds_per_source_tuple(
            chain.operators, params)
    # Mutating a parameter object in place re-keys, it does not go stale.
    params.cpu_mips = mips * 2
    assert compiled_chains(qep, params) is not chains


def test_the_compiled_form_holds_no_run():
    """The plan sits below every run: what it caches is plain plan data."""
    qep = figure5_workload(scale=0.02).qep
    runtime = make_runtime(qep)
    for chains in qep.compiled.values():
        for segment in chains.values():
            for field in CompiledSegment.__slots__:
                value = getattr(segment, field)
                assert not isinstance(value, (QueryRuntime, World))
    assert runtime.fragments["pA"].operators is \
        runtime.compiled["pA"].operators


# --------------------------------------------------------------------------
# Plan revisions: replace_terminal and swap_pending_join
# --------------------------------------------------------------------------

@pytest.mark.parametrize("name", [chain.name for chain in WORKLOAD.qep.chains
                                  if chain.feeds is not None])
def test_replace_terminal_recompiles_only_that_fragment(name):
    runtime = make_runtime()
    fragment = runtime.fragments[name]
    join_name = fragment.builds_join
    runtime.ensure_hash_table(fragment)
    fragment.pending_spill = 3
    continuation = runtime.split_for_memory(fragment)
    params = runtime.world.params
    assert fragment.builds_join is None and fragment.writes_temp
    assert continuation.builds_join == join_name
    for each in (fragment, continuation):
        assert_compiled_facts(each, params)
    # The plan's shared form still describes the chain, not the split.
    assert runtime.compiled[name].builds_join == join_name
    assert make_runtime(runtime.qep).fragments[name].builds_join == join_name


@pytest.mark.parametrize("join_name", sorted(WORKLOAD.qep.joins))
def test_a_swapped_plan_is_a_new_plan(join_name):
    """``swap_pending_join`` installs a new ``QEP``: closure, probing
    map, chain index and compiled chains all come from it, and the old
    plan keeps answering for the old shape."""
    runtime = make_runtime()
    old = runtime.qep
    old_closure, old_compiled = old.closure, runtime.compiled
    assert runtime.can_swap_join(join_name)
    runtime.swap_pending_join(join_name)
    new = runtime.qep
    assert new is not old and new.compiled is not old.compiled
    assert old.closure is old_closure
    assert runtime.closure is new.closure
    assert runtime.compiled is not old_compiled
    reference = swap_join_sides(old, join_name,
                                runtime.world.params.tuple_size)
    assert new.closure == reference.closure == {
        chain.name: naive_ancestors(new, chain.name) for chain in new.chains}
    assert new.probing_chain == reference.probing_chain
    assert new.chain_index == {chain.name: i
                               for i, chain in enumerate(new.chains)}
    for fragment in runtime.fragments.values():
        assert fragment.operators == tuple(new.chain(fragment.name).operators)
        assert_compiled_facts(fragment, runtime.world.params)
        assert (runtime.is_c_schedulable(fragment)
                == naive_c_schedulable(runtime, fragment))
