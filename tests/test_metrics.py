"""Tests for critical degree, bmi and per-tuple CPU cost estimation, and
for the metrics registry's handle lookup and flattened updates."""

import pytest

from repro.common.errors import SchedulingError
from repro.config import SimulationParameters
from repro.core.metrics import (
    benefit_materialization_indicator,
    chain_cpu_seconds_per_source_tuple,
    critical_degree,
)


# --------------------------------------------------------------------------
# critical degree (Section 4.3)
# --------------------------------------------------------------------------

def test_critical_degree_formula():
    assert critical_degree(1000, 20e-6, 12e-6) == pytest.approx(8e-3)


def test_critical_degree_negative_when_cpu_bound():
    assert critical_degree(1000, 5e-6, 12e-6) < 0


def test_critical_degree_zero_tuples():
    assert critical_degree(0, 1.0, 0.5) == 0.0


def test_critical_degree_validation():
    with pytest.raises(SchedulingError):
        critical_degree(-1, 1.0, 1.0)
    with pytest.raises(SchedulingError):
        critical_degree(1, -1.0, 1.0)


# --------------------------------------------------------------------------
# bmi (Section 4.4)
# --------------------------------------------------------------------------

def test_bmi_formula():
    assert benefit_materialization_indicator(20e-6, 5e-6) == pytest.approx(2.0)


def test_bmi_low_when_io_expensive():
    assert benefit_materialization_indicator(10e-6, 20e-6) < 1.0


def test_bmi_validation():
    with pytest.raises(SchedulingError):
        benefit_materialization_indicator(1.0, 0.0)
    with pytest.raises(SchedulingError):
        benefit_materialization_indicator(-1.0, 1.0)


# --------------------------------------------------------------------------
# chain CPU cost (c_p)
# --------------------------------------------------------------------------

def test_scan_only_chain_cost(small_qep, params):
    chain = small_qep.chain("pR")
    cost = chain_cpu_seconds_per_source_tuple(chain.operators, params,
                                              include_receive=False)
    # scan move (100) + mat move (100) at 100 MIPS = 2 us per tuple.
    assert cost == pytest.approx(2e-6)


def test_receive_share_added(small_qep, params):
    chain = small_qep.chain("pR")
    with_receive = chain_cpu_seconds_per_source_tuple(chain.operators, params)
    without = chain_cpu_seconds_per_source_tuple(chain.operators, params,
                                                 include_receive=False)
    assert with_receive - without == pytest.approx(
        params.receive_cpu_seconds_per_tuple())


def test_probe_chain_cost_includes_fanout(small_qep, params):
    chain = small_qep.chain("pS")  # scan -> probe J1 (fanout 1) -> mat
    cost = chain_cpu_seconds_per_source_tuple(chain.operators, params,
                                              include_receive=False)
    # move 100 + search 100 + produce 50*1 + mat move 100*1 = 350 -> 3.5 us.
    assert cost == pytest.approx(3.5e-6)


def test_use_actuals_switches_fanout(small_catalog, small_tree, params):
    from repro.plan import build_qep
    qep = build_qep(small_catalog, small_tree,
                    actual_output_factors={"J1": 3.0})
    chain = qep.chain("pS")
    estimated = chain_cpu_seconds_per_source_tuple(
        chain.operators, params, include_receive=False)
    actual = chain_cpu_seconds_per_source_tuple(
        chain.operators, params, include_receive=False, use_actuals=True)
    assert actual > estimated


def test_every_pc_critical_at_w_min(tiny_fig5, params):
    """Section 4.3: any PC consuming remote data is critical at w_min."""
    for chain in tiny_fig5.qep.chains:
        cost = chain_cpu_seconds_per_source_tuple(chain.operators, params)
        assert cost < params.w_min, chain.name


# --------------------------------------------------------------------------
# MetricsRegistry: a handle that exists is one dict read
# --------------------------------------------------------------------------

def test_an_existing_handle_is_returned_without_the_creation_path(monkeypatch):
    from repro.observability import MetricsRegistry

    registry = MetricsRegistry()
    handles = {
        "counter": registry.counter("c"),
        "gauge": registry.gauge("g"),
        "histogram": registry.histogram("h", buckets=(1.0, 2.0)),
    }

    def no_creation(*args, **kwargs):
        raise AssertionError("an existing name went through _get_or_create")

    monkeypatch.setattr(registry, "_get_or_create", no_creation)
    assert registry.counter("c") is handles["counter"]
    assert registry.gauge("g") is handles["gauge"]
    assert registry.histogram("h") is handles["histogram"]
    assert len(registry) == 3


@pytest.mark.parametrize("first,second", [
    ("counter", "gauge"), ("counter", "histogram"),
    ("gauge", "counter"), ("gauge", "histogram"),
    ("histogram", "counter"), ("histogram", "gauge"),
])
def test_a_name_of_another_kind_is_still_refused(first, second):
    from repro.common.errors import ConfigurationError
    from repro.observability import MetricsRegistry

    registry = MetricsRegistry()
    handle = getattr(registry, first)("shared.name")
    with pytest.raises(ConfigurationError, match=f"registered as {first}"):
        getattr(registry, second)("shared.name")
    assert getattr(registry, first)("shared.name") is handle


def test_a_disabled_registry_still_hands_out_the_null_metric():
    from repro.observability import NULL_METRIC, MetricsRegistry

    registry = MetricsRegistry(enabled=False)
    for _ in range(2):
        assert registry.counter("c") is NULL_METRIC
        assert registry.gauge("g") is NULL_METRIC
        assert registry.histogram("h") is NULL_METRIC
    assert len(registry) == 0


def test_flattened_updates_keep_their_checks_and_extremes():
    from repro.observability import MetricsRegistry
    from repro.sim.stats import WelfordStat

    registry = MetricsRegistry()
    counter = registry.counter("c")
    counter.inc()
    counter.inc(2.5)
    with pytest.raises(ValueError, match="negative"):
        counter.inc(-1.0)
    assert counter.value == 3.5 and counter.as_dict()["value"] == 3.5
    gauge = registry.gauge("g")
    assert gauge.minimum is None and gauge.maximum is None
    for value in (4.0, -2.0, 9.0, 0.0):
        gauge.set(value)
    assert (gauge.value, gauge.minimum, gauge.maximum) == (0.0, -2.0, 9.0)
    stream = WelfordStat()
    assert stream.minimum is None and stream.maximum is None
    for value in (3.0, 1.0, 2.0):
        stream.record(value)
    assert (stream.count, stream.minimum, stream.maximum) == (3, 1.0, 3.0)
    assert stream.mean == pytest.approx(2.0)
    assert stream.variance == pytest.approx(1.0)


def test_looking_handles_up_between_exports_never_tears():
    """Engine-side code resolving its handles by name on every update
    against an exporting task on the same loop, switching after every
    update: each export is whole and no update is lost."""
    import asyncio

    from repro.observability import MetricsRegistry

    registry = MetricsRegistry()
    workers, iterations = 4, 300
    torn = []

    async def mutate(worker):
        for index in range(iterations):
            registry.counter("ops").inc()
            await asyncio.sleep(0)
            registry.histogram("sizes", buckets=(1.0, 2.0)).observe(
                float(index % 3))
            await asyncio.sleep(0)
            registry.gauge(f"level.{worker}").set(float(index))
            await asyncio.sleep(0)

    async def scenario():
        mutators = asyncio.gather(*(mutate(w) for w in range(workers)))
        while not mutators.done():
            snapshot = registry.as_dict()
            sizes = snapshot.get("sizes")
            ops = snapshot.get("ops")
            if sizes is not None and ops is not None:
                if sum(sizes["counts"]) != sizes["count"]:
                    torn.append(("histogram", sizes))
                if ops["value"] < sizes["count"]:
                    # Each worker bumps the counter before it observes.
                    torn.append(("order", ops["value"], sizes["count"]))
            await asyncio.sleep(0)
        await mutators

    asyncio.run(scenario())
    assert torn == []
    final = registry.as_dict()
    assert final["ops"]["value"] == workers * iterations
    assert final["sizes"]["count"] == workers * iterations
    assert len(registry) == 2 + workers
