"""Tests for the SEQ / MA / DSE policies and the LWB."""

import pytest

from repro.common.errors import ConfigurationError
from repro.config import SimulationParameters
from repro.core.engine import QueryEngine
from repro.core.strategies import (
    DsePolicy,
    MaterializeAllPolicy,
    SequentialPolicy,
    lower_bound,
    make_policy,
)
from repro.wrappers import ConstantDelay, UniformDelay


def run(workload, strategy, waits=None, seed=1, **overrides):
    params = SimulationParameters().with_overrides(**overrides)
    if waits is None:
        waits = {name: params.w_min for name in workload.relation_names}
    delays = {name: UniformDelay(wait) for name, wait in waits.items()}
    engine = QueryEngine(workload.catalog, workload.qep, make_policy(strategy),
                         delays, params=params, seed=seed)
    return engine.run()


# --------------------------------------------------------------------------
# make_policy
# --------------------------------------------------------------------------

def test_make_policy_by_name():
    assert isinstance(make_policy("SEQ"), SequentialPolicy)
    assert isinstance(make_policy("ma"), MaterializeAllPolicy)
    assert isinstance(make_policy("DSE"), DsePolicy)


def test_make_policy_unknown():
    with pytest.raises(ConfigurationError, match="unknown strategy 'TURBO'"):
        make_policy("TURBO")


# --------------------------------------------------------------------------
# Correctness: every strategy computes the same result
# --------------------------------------------------------------------------

def test_all_strategies_same_result_count(tiny_fig5):
    expected = round(50_000 * 0.02)
    for strategy in ["SEQ", "MA", "DSE"]:
        result = run(tiny_fig5, strategy)
        assert result.result_tuples == expected, strategy


def test_results_independent_of_delays(tiny_fig5):
    slow = {name: 20e-6 for name in tiny_fig5.relation_names}
    slow["F"] = 500e-6
    for strategy in ["SEQ", "MA", "DSE"]:
        result = run(tiny_fig5, strategy, waits=slow)
        assert result.result_tuples == 1000, strategy


# --------------------------------------------------------------------------
# SEQ behaviour
# --------------------------------------------------------------------------

def test_seq_never_degrades(tiny_fig5):
    result = run(tiny_fig5, "SEQ")
    assert result.degradations == 0
    assert result.tuples_spilled == 0


def chain_completions(result):
    """Chains in completion order: a chain completes when its last
    fragment finishes."""
    completed: dict[str, float] = {}
    for stat in result.fragment_stats.values():
        completed[stat.chain] = max(completed.get(stat.chain, 0.0),
                                    stat.finished_at)
    return sorted(completed.items(), key=lambda item: item[1])


def test_seq_processes_chains_in_iterator_order(tiny_fig5):
    result = run(tiny_fig5, "SEQ")
    completions = [chain for chain, _ in chain_completions(result)]
    assert completions == ["pA", "pB", "pF", "pE", "pD", "pC"]


def test_seq_stalls_on_slow_source(tiny_fig5):
    slow = {name: 20e-6 for name in tiny_fig5.relation_names}
    slow["A"] = 2e-3
    result = run(tiny_fig5, "SEQ", waits=slow)
    assert result.stall_time > 0.5 * result.response_time


# --------------------------------------------------------------------------
# MA behaviour
# --------------------------------------------------------------------------

def test_ma_degrades_every_chain(tiny_fig5):
    result = run(tiny_fig5, "MA")
    assert result.degradations == len(tiny_fig5.qep.chains)
    total_tuples = sum(r.cardinality for r in tiny_fig5.catalog)
    assert result.tuples_spilled == total_tuples
    assert result.tuples_reloaded == total_tuples


def test_ma_materializes_before_processing(tiny_fig5):
    result = run(tiny_fig5, "MA")
    # An MF finishes once its temp is sealed.
    sealed = [stat.finished_at for stat in result.fragment_stats.values()
              if stat.kind == "mf"]
    assert len(sealed) == len(tiny_fig5.qep.chains)
    assert max(sealed) <= chain_completions(result)[0][1]


def test_ma_overlaps_delivery_delays(tiny_fig5):
    """Two slowed relations: MA pays their retrieval only once (overlap)."""
    waits = {name: 20e-6 for name in tiny_fig5.relation_names}
    waits["A"] = 1e-3
    waits["F"] = 1e-3
    result = run(tiny_fig5, "MA", waits=waits)
    card_a = tiny_fig5.catalog.relation("A").cardinality
    card_f = tiny_fig5.catalog.relation("F").cardinality
    both_retrievals = (card_a + card_f) * 1e-3
    assert result.response_time < both_retrievals


# --------------------------------------------------------------------------
# DSE behaviour
# --------------------------------------------------------------------------

def test_dse_beats_seq_with_slow_source(mini_fig5):
    waits = {name: 20e-6 for name in mini_fig5.relation_names}
    waits["F"] = 400e-6
    seq = run(mini_fig5, "SEQ", waits=waits)
    dse = run(mini_fig5, "DSE", waits=waits)
    assert dse.response_time < seq.response_time


def test_dse_no_degradation_on_fast_network(tiny_fig5):
    fast = {name: 2e-6 for name in tiny_fig5.relation_names}
    result = run(tiny_fig5, "DSE", waits=fast, w_min=2e-6)
    assert result.degradations == 0


def test_dse_degrades_blocked_critical_chains(mini_fig5):
    waits = {name: 20e-6 for name in mini_fig5.relation_names}
    waits["F"] = 400e-6
    result = run(mini_fig5, "DSE", waits=waits)
    degraded = [r.subject for r in result.decisions if r.kind == "degrade"]
    assert "pF" in degraded


def test_dse_partial_materialization_stops_mf(mini_fig5):
    waits = {name: 20e-6 for name in mini_fig5.relation_names}
    waits["F"] = 100e-6
    result = run(mini_fig5, "DSE", waits=waits)
    stops = [r.subject for r in result.decisions if r.kind == "mf-stop"]
    assert stops, "expected at least one MF to be stopped early"
    # A stopped MF means F was only partially spilled.
    card_f = mini_fig5.catalog.relation("F").cardinality
    if "MF(pF)" in stops:
        spilled_f = result.fragment_stats["MF(pF)"].tuples_in
        assert spilled_f < card_f


def test_dse_rate_change_triggers_replanning(mini_fig5):
    """A source that suddenly slows mid-run fires RateChange events."""
    from repro.wrappers.delays import BurstyDelay
    params = SimulationParameters()
    delays = {name: UniformDelay(20e-6) for name in mini_fig5.relation_names}
    # F: normal for the first burst, then long gaps (rate collapses).
    delays["F"] = BurstyDelay(burst_tuples=5000, gap=0.5,
                              within_burst_wait=20e-6)
    engine = QueryEngine(mini_fig5.catalog, mini_fig5.qep, make_policy("DSE"),
                         delays, params=params, seed=2)
    result = engine.run()
    assert result.rate_change_events >= 1
    assert result.result_tuples == 5000


def test_dse_keeps_engine_busy(mini_fig5):
    waits = {name: 20e-6 for name in mini_fig5.relation_names}
    seq = run(mini_fig5, "SEQ", waits=waits)
    dse = run(mini_fig5, "DSE", waits=waits)
    assert dse.stall_time < seq.stall_time


# --------------------------------------------------------------------------
# LWB
# --------------------------------------------------------------------------

def test_lwb_below_all_strategies(tiny_fig5):
    params = SimulationParameters()
    waits = {name: params.w_min for name in tiny_fig5.relation_names}
    bound = lower_bound(tiny_fig5.qep, waits, params)
    for strategy in ["SEQ", "MA", "DSE"]:
        result = run(tiny_fig5, strategy)
        # 1% slack: the bound is on expected delays, runs are sampled.
        assert bound <= result.response_time * 1.01, strategy


def test_lwb_retrieval_term_dominates_when_slow(tiny_fig5):
    params = SimulationParameters()
    waits = {name: params.w_min for name in tiny_fig5.relation_names}
    waits["F"] = 10e-3
    bound = lower_bound(tiny_fig5.qep, waits, params)
    card_f = tiny_fig5.catalog.relation("F").cardinality
    assert bound == pytest.approx(card_f * 10e-3)


def test_lwb_cpu_term_dominates_when_fast(tiny_fig5):
    params = SimulationParameters()
    waits = {name: 1e-9 for name in tiny_fig5.relation_names}
    bound = lower_bound(tiny_fig5.qep, waits, params)
    assert bound > 0
    # Must equal the total CPU term: much larger than any retrieval.
    slowest = max(tiny_fig5.catalog.relation(n).cardinality * 1e-9
                  for n in tiny_fig5.relation_names)
    assert bound > slowest


def test_lwb_missing_source_rejected(tiny_fig5):
    from repro.common.errors import SchedulingError
    params = SimulationParameters()
    with pytest.raises(SchedulingError):
        lower_bound(tiny_fig5.qep, {"A": 1e-5}, params)


def test_engine_lower_bound_uses_delay_means(tiny_fig5):
    params = SimulationParameters()
    delays = {name: ConstantDelay(5e-5) for name in tiny_fig5.relation_names}
    engine = QueryEngine(tiny_fig5.catalog, tiny_fig5.qep, make_policy("SEQ"),
                         delays, params=params)
    waits = {name: 5e-5 for name in tiny_fig5.relation_names}
    assert engine.lower_bound() == pytest.approx(
        lower_bound(tiny_fig5.qep, waits, params))
