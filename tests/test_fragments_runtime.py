"""Tests for runtime fragments, chain lifecycle, degradation and splits."""

import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog import Relation
from repro.common.errors import SchedulingError
from repro.config import SimulationParameters
from repro.core.fragments import (
    BATCH_EMPTY,
    BATCH_FINISHED,
    BATCH_OK,
    BATCH_OVERFLOW,
    Fragment,
    FragmentKind,
    FragmentStatus,
)
from repro.core.runtime import QueryRuntime, World
from repro.mediator.queues import Message
from repro.plan.operators import (
    JoinSpec,
    MatOp,
    Operator,
    OutputOp,
    ProbeOp,
    ScanOp,
)
from repro.plan.qep import PipelineChain


@pytest.fixture
def rt(small_qep):
    """Runtime over the small R-S-T plan with queues registered."""
    world = World(SimulationParameters(), seed=5)
    for name in small_qep.source_relations():
        world.cm.register_source(name)
    return QueryRuntime(world, small_qep)


def feed(rt, source, tuples, eof=False):
    rt.world.cm.queue(source).put(Message(tuples, eof=eof))


def run_batch(rt, fragment, max_tuples=10_000):
    proc = rt.world.sim.process(_once(fragment, max_tuples))
    rt.world.sim.run()
    assert proc.failure is None, proc.failure
    return proc.value


def _once(fragment, max_tuples):
    outcome = yield from fragment.process_batch(max_tuples)
    return outcome


# --------------------------------------------------------------------------
# Basic fragment processing
# --------------------------------------------------------------------------

def test_initial_fragments_one_per_chain(rt, small_qep):
    assert set(rt.fragments) == {"pR", "pS", "pT"}
    for chain in small_qep.chains:
        assert rt.chain_fragments[chain.name][0].kind is FragmentKind.PIPELINE_CHAIN


def test_build_fragment_inserts_into_table(rt):
    fragment = rt.fragments["pR"]
    rt.ensure_hash_table(fragment)
    feed(rt, "R", 500)
    assert run_batch(rt, fragment) == BATCH_OK
    assert fragment.hash_table.tuples == 500
    assert fragment.tuples_in == 500


def test_fragment_charges_cpu(rt):
    fragment = rt.fragments["pR"]
    rt.ensure_hash_table(fragment)
    feed(rt, "R", 100)
    run_batch(rt, fragment)
    # scan move + mat move = 200 instr/tuple -> 2 us * 100 tuples.
    assert rt.world.cpu.busy_time == pytest.approx(200e-6)


def test_fragment_finishes_on_eof(rt):
    fragment = rt.fragments["pR"]
    rt.ensure_hash_table(fragment)
    feed(rt, "R", 1000, eof=True)
    assert run_batch(rt, fragment) == BATCH_FINISHED
    assert fragment.status is FragmentStatus.DONE
    assert rt.chain_complete("pR")
    assert fragment.hash_table.complete  # sealed at chain completion


def test_empty_batch_when_no_data(rt):
    fragment = rt.fragments["pR"]
    rt.ensure_hash_table(fragment)
    assert run_batch(rt, fragment) == BATCH_EMPTY


def test_probe_fragment_fanout(rt):
    build = rt.fragments["pR"]
    rt.ensure_hash_table(build)
    feed(rt, "R", 1000, eof=True)
    run_batch(rt, build)
    probe = rt.fragments["pS"]
    rt.ensure_hash_table(probe)
    feed(rt, "S", 2000, eof=True)
    assert run_batch(rt, probe) == BATCH_FINISHED
    # |R ⋈ S| = 2000: J2's build table received all of them.
    assert rt.hash_tables["J2"].tuples == 2000


def test_full_query_through_fragments(rt):
    for source, fragment_name in [("R", "pR"), ("S", "pS"), ("T", "pT")]:
        fragment = rt.fragments[fragment_name]
        rt.ensure_hash_table(fragment)
        feed(rt, source, rt.world.cm.queue(source).capacity_messages * 0
             + {"R": 1000, "S": 2000, "T": 1500}[source], eof=True)
        run_batch(rt, fragment)
    assert rt.all_done
    assert rt.result_tuples == 1500
    assert rt.hash_tables == {}  # all tables dropped


def test_tables_dropped_when_probe_finishes(rt):
    build = rt.fragments["pR"]
    rt.ensure_hash_table(build)
    feed(rt, "R", 1000, eof=True)
    run_batch(rt, build)
    assert "J1" in rt.hash_tables
    probe = rt.fragments["pS"]
    rt.ensure_hash_table(probe)
    feed(rt, "S", 2000, eof=True)
    run_batch(rt, probe)
    assert "J1" not in rt.hash_tables  # dropped after probing completed
    assert "J2" in rt.hash_tables


def test_fragment_requires_table(rt):
    fragment = rt.fragments["pR"]
    feed(rt, "R", 10)
    proc = rt.world.sim.process(_once(fragment, 100))
    proc.defused = True
    rt.world.sim.run()
    assert proc.failure is not None


def test_process_done_fragment_rejected(rt):
    fragment = rt.fragments["pR"]
    rt.ensure_hash_table(fragment)
    feed(rt, "R", 10, eof=True)
    run_batch(rt, fragment)
    proc = rt.world.sim.process(_once(fragment, 100))
    proc.defused = True
    rt.world.sim.run()
    assert isinstance(proc.failure, SchedulingError)


# --------------------------------------------------------------------------
# C-schedulability
# --------------------------------------------------------------------------

def test_c_schedulability_follows_dependencies(rt):
    assert rt.is_c_schedulable(rt.fragments["pR"])
    assert not rt.is_c_schedulable(rt.fragments["pS"])
    assert not rt.is_c_schedulable(rt.fragments["pT"])

    rt.ensure_hash_table(rt.fragments["pR"])
    feed(rt, "R", 1000, eof=True)
    run_batch(rt, rt.fragments["pR"])
    assert rt.is_c_schedulable(rt.fragments["pS"])
    assert not rt.is_c_schedulable(rt.fragments["pT"])


# --------------------------------------------------------------------------
# Degradation (MF / CF, partial materialization)
# --------------------------------------------------------------------------

def test_degrade_creates_mf_and_suspends_pc(rt, small_qep):
    mf = rt.degrade_chain(small_qep.chain("pS"))
    assert mf.kind is FragmentKind.MATERIALIZATION
    assert rt.fragments["pS"].suspended
    assert rt.is_c_schedulable(mf)          # MF has no ancestors
    assert not rt.is_c_schedulable(rt.fragments["pS"])


def test_degrade_running_chain_rejected(rt, small_qep):
    fragment = rt.fragments["pR"]
    rt.ensure_hash_table(fragment)
    feed(rt, "R", 10)
    run_batch(rt, fragment)
    with pytest.raises(SchedulingError):
        rt.degrade_chain(small_qep.chain("pR"))


def test_degrade_twice_rejected(rt, small_qep):
    rt.degrade_chain(small_qep.chain("pS"))
    with pytest.raises(SchedulingError):
        rt.degrade_chain(small_qep.chain("pS"))


def test_mf_materializes_and_cf_replays(rt, small_qep):
    # Complete pR so pS becomes schedulable later.
    rt.ensure_hash_table(rt.fragments["pR"])
    feed(rt, "R", 1000, eof=True)
    run_batch(rt, rt.fragments["pR"])

    mf = rt.degrade_chain(small_qep.chain("pS"))
    feed(rt, "S", 1200)
    run_batch(rt, mf)
    feed(rt, "S", 800, eof=True)
    assert run_batch(rt, mf) == BATCH_FINISHED
    assert mf.temp_writer.temp.tuples == 2000

    created = rt.advance_degraded_chains()
    assert [f.name for f in created] == ["CF(pS)"]
    assert not rt.fragments["pS"].suspended

    cf = rt.fragments["CF(pS)"]
    assert rt.is_c_schedulable(cf)
    rt.ensure_hash_table(cf)
    while cf.status is not FragmentStatus.DONE:
        run_batch(rt, cf)
    # PC part: queue is exhausted, finalizes with zero tuples.
    pc = rt.fragments["pS"]
    rt.ensure_hash_table(pc)
    feed_queue_empty = rt.world.cm.queue("S").exhausted
    assert feed_queue_empty
    run_batch(rt, pc)
    assert rt.chain_complete("pS")
    assert rt.hash_tables["J2"].tuples == 2000


def test_partial_materialization_stop(rt, small_qep):
    mf = rt.degrade_chain(small_qep.chain("pS"))
    feed(rt, "S", 600)
    run_batch(rt, mf)
    rt.request_stop_materialization(small_qep.chain("pS"))
    assert mf.stop_requested
    assert mf.has_work()
    feed(rt, "S", 600)  # more data arrives but the MF must finalize instead
    assert run_batch(rt, mf) == BATCH_FINISHED
    assert mf.temp_writer.temp.tuples == 600

    rt.advance_degraded_chains()
    pc = rt.fragments["pS"]
    assert not pc.suspended
    # The unconsumed queue data is the PC's to process.
    assert rt.world.cm.queue("S").tuples_available == 600


def test_cf_and_pc_share_hash_table(rt, small_qep):
    rt.ensure_hash_table(rt.fragments["pR"])
    feed(rt, "R", 1000, eof=True)
    run_batch(rt, rt.fragments["pR"])

    mf = rt.degrade_chain(small_qep.chain("pS"))
    feed(rt, "S", 1000)
    run_batch(rt, mf)
    rt.request_stop_materialization(small_qep.chain("pS"))
    run_batch(rt, mf)
    rt.advance_degraded_chains()

    cf, pc = rt.fragments["CF(pS)"], rt.fragments["pS"]
    rt.ensure_hash_table(cf)
    rt.ensure_hash_table(pc)
    assert cf.hash_table is pc.hash_table

    feed(rt, "S", 1000, eof=True)
    run_batch(rt, pc)  # live tuples
    while cf.status is not FragmentStatus.DONE:
        run_batch(rt, cf)
    assert rt.chain_complete("pS")
    assert rt.hash_tables["J2"].tuples == 2000


# --------------------------------------------------------------------------
# Memory splits (Section 4.2)
# --------------------------------------------------------------------------

def test_split_for_memory_creates_continuation(rt, small_qep):
    fragment = rt.fragments["pR"]
    rt.ensure_hash_table(fragment)
    fragment.pending_spill = 123
    continuation = rt.split_for_memory(fragment)
    assert continuation.kind is FragmentKind.CONTINUATION
    assert fragment.writes_temp
    assert fragment.pending_spill == 0
    assert fragment.temp_writer.temp.tuples == 123
    assert continuation.hash_table is not None
    assert not rt.is_c_schedulable(continuation)  # parent not done yet


def test_split_without_build_rejected(rt):
    fragment = rt.fragments["pT"]  # output terminal
    with pytest.raises(SchedulingError):
        rt.split_for_memory(fragment)


def test_new_memory_needed(rt, small_qep):
    fragment = rt.fragments["pR"]
    assert rt.new_memory_needed(fragment) == 1000 * 40
    rt.ensure_hash_table(fragment)
    assert rt.new_memory_needed(fragment) == 0
    # Output fragments never need new memory.
    assert rt.new_memory_needed(rt.fragments["pT"]) == 0


# --------------------------------------------------------------------------
# The compiled flow against the per-batch interpreter it replaced
# --------------------------------------------------------------------------

def reference_flow(chain_name, operators, params, pool, count):
    """The interpreted ``Fragment._flow`` / ``_carry`` as they stood
    before fragments were compiled: the oracle, bit for bit."""
    def carry(op, value):
        key = (chain_name, op.name)
        total = value + pool.get(key, 0.0)
        whole = int(total)
        pool[key] = total - whole
        return whole

    instructions = 0.0
    flowing = count
    for op in operators:
        if isinstance(op, ScanOp):
            instructions += flowing * params.move_tuple_instructions
            flowing = carry(op, flowing * op.scan_selectivity)
        elif isinstance(op, ProbeOp):
            instructions += flowing * params.hash_search_instructions
            flowing = carry(op, flowing * op.join.actual_fanout())
            instructions += flowing * params.produce_tuple_instructions
        elif isinstance(op, MatOp):
            instructions += flowing * params.move_tuple_instructions
        elif isinstance(op, OutputOp):
            pass
        else:
            raise AssertionError(f"unknown operator {op!r}")
    return instructions, int(flowing)


class StubRuntime:
    """What ``Fragment.__init__`` reads off its runtime (a fragment
    reaches its runtime weakly, which a ``SimpleNamespace`` cannot be)."""

    def __init__(self):
        self.world = SimpleNamespace(params=SimulationParameters())
        self.carry_pool = {}


class Twin:
    """One fragment and its oracle, each over its own carry pool."""

    def __init__(self, runtime, oracle_pool, name, kind, chain, operators):
        self.fragment = Fragment(runtime, name, kind, chain, operators, None)
        self.chain, self.operators = chain.name, list(operators)
        self.params, self.pool = runtime.world.params, runtime.carry_pool
        self.oracle_pool = oracle_pool

    def flow(self, count):
        got = self.fragment._flow(count)
        want = reference_flow(self.chain, self.operators, self.params,
                              self.oracle_pool, count)
        assert got == want
        assert type(got[1]) is int
        assert self.pool == self.oracle_pool
        return got[1]


TERMINALS = {
    "table": lambda join: MatOp(name=f"mat[{join.name}]", join=join),
    "temp": lambda join: MatOp(name="mat[temp]", join=None),
    "output": lambda join: OutputOp(name="output"),
}

fanouts = st.tuples(st.floats(0.001, 1.0), st.floats(0.0, 60.0),
                    st.floats(0.1, 3.0))


@settings(max_examples=120, deadline=None)
@given(selectivity=st.floats(0.001, 1.0),
       probes=st.lists(fanouts, max_size=4),
       terminal=st.sampled_from(sorted(TERMINALS)),
       actions=st.lists(st.tuples(st.sampled_from(["pc", "mf", "cf"]),
                                  st.integers(1, 5000)),
                        min_size=1, max_size=40))
def test_compiled_flow_equals_the_interpreter(selectivity, probes, terminal,
                                              actions):
    joins = [JoinSpec(name=f"J{i}", build_relations=(f"B{i}",),
                      probe_relations=("S",), crossing_selectivity=crossing,
                      estimated_build_cardinality=build,
                      actual_fanout_factor=factor)
             for i, (crossing, build, factor) in enumerate(probes)]
    build_join = JoinSpec(name="JT", build_relations=("S",),
                          probe_relations=("X",), crossing_selectivity=1.0)
    scan = ScanOp(name="scan(S)", relation="S", scan_selectivity=selectivity)
    chain = PipelineChain("pS", "S", [
        scan, *(ProbeOp(name=f"probe[{j.name}]", join=j) for j in joins),
        TERMINALS[terminal](build_join)])
    runtime = StubRuntime()
    oracle_pool = {}

    # The three parts of a degraded chain share one pool: MF applies the
    # scan and writes a temp, CF replays the temp through the rest, PC
    # runs the undivided pipeline on whatever the MF left in the queue.
    def twin(name, kind, operators):
        return Twin(runtime, oracle_pool, name, kind, chain, operators)

    pc = twin("pS", FragmentKind.PIPELINE_CHAIN, chain.operators)
    mf = twin("MF(pS)", FragmentKind.MATERIALIZATION,
              [scan, MatOp(name="mat[temp]", join=None)])
    cf = twin("CF(pS)", FragmentKind.COMPLEMENT,
              [ScanOp(name="scan(temp)", relation="temp"),
               *chain.operators[1:]])

    consumed = delivered = temp_backlog = 0
    for which, count in actions:
        if which == "pc":
            consumed += count
            delivered += pc.flow(count)
        elif which == "mf":
            consumed += count
            temp_backlog += mf.flow(count)
        elif temp_backlog:
            count = min(count, temp_backlog)
            temp_backlog -= count
            delivered += cf.flow(count)
    if temp_backlog:
        delivered += cf.flow(temp_backlog)

    # Totals converge to the true cardinality: every stage holds back
    # less than one tuple, amplified by the fanouts downstream of it.
    ratios = [selectivity] + [j.actual_fanout() for j in joins]
    exact = consumed * math.prod(ratios)
    slack = sum(math.prod(ratios[i + 1:]) for i in range(len(ratios)))
    tolerance = 1e-9 * max(1.0, exact)
    assert exact - slack - tolerance <= delivered <= exact + tolerance


def test_operator_errors_are_raised_when_the_fragment_is_compiled(rt):
    fragment = rt.fragments["pR"]
    chain, source = fragment.chain, fragment.source
    stranger = Operator(name="sort")
    with pytest.raises(SchedulingError, match="unknown operator"):
        Fragment(rt, "x", FragmentKind.PIPELINE_CHAIN, chain,
                 [chain.scan, stranger, chain.terminal], source)
    with pytest.raises(SchedulingError, match="unsupported terminal"):
        Fragment(rt, "x", FragmentKind.PIPELINE_CHAIN, chain,
                 [chain.scan, stranger], source)
    with pytest.raises(SchedulingError, match="unsupported terminal"):
        fragment.replace_terminal(stranger)
    assert fragment.terminal is chain.terminal  # the failed swap left it alone


def test_operators_change_only_through_replace_terminal(rt):
    fragment = rt.fragments["pR"]
    assert isinstance(fragment.operators, tuple)
    with pytest.raises(TypeError):
        fragment.operators[-1] = OutputOp(name="output")
    with pytest.raises(AttributeError):
        fragment.operators = [fragment.operators[0], OutputOp(name="output")]


def test_split_fragment_runs_the_recompiled_plan(rt, small_qep):
    """After a forced split the next batch goes to the temp at the
    materialization cost, and the continuation builds the table."""
    params, cpu = rt.world.params, rt.world.cpu
    fragment = rt.fragments["pR"]
    join_name = fragment.builds_join
    rt.ensure_hash_table(fragment)
    feed(rt, "R", 400)
    run_batch(rt, fragment)
    table = fragment.hash_table
    assert table.tuples == 400

    fragment.pending_spill = 100
    continuation = rt.split_for_memory(fragment)
    assert fragment.writes_temp and fragment.builds_join is None
    assert fragment.operators[-1].name == "mat[temp]"

    oracle_pool = dict(rt.carry_pool)
    busy_before = cpu.busy_time
    feed(rt, "R", 500, eof=True)
    assert run_batch(rt, fragment) == BATCH_FINISHED
    instructions, tuples = reference_flow(
        fragment.chain.name, fragment.operators, params, oracle_pool, 500)
    assert tuples == 500
    assert instructions == 500 * 2 * params.move_tuple_instructions
    assert cpu.busy_time - busy_before >= params.instructions_seconds(
        instructions)
    assert fragment.cpu_seconds == sum(
        params.instructions_seconds(n * 2 * params.move_tuple_instructions)
        for n in (400, 500))  # scan + materialize, both batches
    assert rt.carry_pool == oracle_pool
    assert table.tuples == 400                       # stopped growing
    assert fragment.temp_writer.temp.tuples == 600   # spill + the batch

    assert continuation.builds_join == join_name
    while continuation.status is not FragmentStatus.DONE:
        run_batch(rt, continuation)
    assert table.tuples == 1000
    assert continuation.cpu_seconds == params.instructions_seconds(
        600 * 2 * params.move_tuple_instructions)
