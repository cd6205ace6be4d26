"""SLO specs and the multi-window burn-rate alert state machine.

The tracker never reads a clock, so the acceptance scenario — a latency
breach fires the fast window first and the slow window only after the
burn persists — is pinned tick by tick with synthetic timestamps.
"""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.service.slo import (
    ALL_TENANTS,
    FAST_BURN_THRESHOLD,
    SLOW_BURN_THRESHOLD,
    SLOSpec,
    SLOTracker,
    parse_slo_specs,
)


# --------------------------------------------------------------------------
# Spec grammar
# --------------------------------------------------------------------------

def test_spec_parses_the_canonical_form():
    spec = SLOSpec.parse("gold:p99<=30s@99.5%")
    assert spec.tenant == "gold"
    assert spec.metric == "p99"
    assert spec.threshold_s == 30.0
    assert spec.target == pytest.approx(0.995)
    assert spec.error_budget == pytest.approx(0.005)
    assert spec.name == "gold:p99<=30s@99.5%"


def test_spec_units_and_wildcard():
    assert SLOSpec.parse("gold:latency<=250ms@99%").threshold_s \
        == pytest.approx(0.25)
    spec = SLOSpec.parse("*:p50<=1m@90%")
    assert spec.tenant == ALL_TENANTS
    assert spec.threshold_s == 60.0
    assert spec.matches("anyone") and spec.matches(None)
    narrow = SLOSpec.parse("gold:p99<=1s@99%")
    assert narrow.matches("gold") and not narrow.matches("silver")


def test_spec_name_round_trips():
    for text in ("gold:p99<=30s@99.5%", "gold:latency<=250ms@99%",
                 "*:p50<=1m@90%"):
        spec = SLOSpec.parse(text)
        assert SLOSpec.parse(spec.name) == spec


def test_good_is_at_or_under_threshold():
    spec = SLOSpec.parse("gold:p99<=1s@99%")
    assert spec.good(1.0) and spec.good(0.1) and not spec.good(1.001)


@pytest.mark.parametrize("text", [
    "no-colon<=1s@99%",
    "gold:p42<=1s@99%",          # unknown metric
    "gold:p99<=0s@99%",          # zero threshold
    "gold:p99<=1s@100%",         # zero error budget
    "gold:p99<=1s@0%",
    "gold:p99<=1s@99",           # missing %
    "gold:p99>=1s@99%",          # wrong comparator
])
def test_bad_specs_are_rejected(text):
    with pytest.raises(ConfigurationError):
        SLOSpec.parse(text)


def test_parse_slo_specs_rejects_duplicates_after_normalisation():
    # 30000ms and 30s normalise to the same canonical objective.
    with pytest.raises(ConfigurationError):
        parse_slo_specs(["gold:p99<=30s@99.5%", "gold:p99<=30000ms@99.5%"])
    specs = parse_slo_specs(["gold:p99<=30s@99.5%", "silver:p99<=60s@99%"])
    assert [spec.tenant for spec in specs] == ["gold", "silver"]


def test_tracker_configuration_is_validated():
    spec = SLOSpec.parse("gold:p99<=1s@99%")
    with pytest.raises(ConfigurationError):
        SLOTracker([])
    with pytest.raises(ConfigurationError):
        SLOTracker([spec], fast_window_s=600.0, slow_window_s=600.0)
    with pytest.raises(ConfigurationError):
        SLOTracker([spec], capacity=0)


# --------------------------------------------------------------------------
# Burn-rate alert sequencing (the acceptance scenario)
# --------------------------------------------------------------------------

def _breach_scenario():
    """One objective, an hour of good traffic, then a hard breach.

    Returns the tracker primed with 300 good events at 10s spacing over
    [0, 3000).  Budget is 1% (target 99%), so with defaults the fast
    window (300s, x14.4) trips at >= 14.4% bad in-window and the slow
    window (3600s, x6.0) at >= 6% bad in-window.
    """
    spec = SLOSpec.parse("gold:p99<=0.1s@99%")
    tracker = SLOTracker([spec])
    for i in range(300):
        tracker.observe("gold", 0.01, at=10.0 * i)
    assert tracker.evaluate(2990.0) == []
    return tracker


def test_fast_window_fires_before_slow_window():
    tracker = _breach_scenario()
    fired = []  # (tick, window, state)
    for k in range(1, 21):
        now = 3000.0 + 10.0 * (k - 1)
        tracker.observe("gold", 1.0, at=now)  # breach: 1.0s >> 0.1s
        for transition in tracker.evaluate(now):
            fired.append((now, transition["window"], transition["state"]))
    # Fast fires on the 5th bad event (5/31 in-window = burn 16.1 over
    # threshold 14.4); slow only on the 20th (20/320 = burn 6.25 over
    # 6.0) -- 150 virtual seconds later.
    assert fired == [(3040.0, "fast", "firing"), (3190.0, "slow", "firing")]

    status = tracker.status(3190.0)[0]
    assert status["alerting"] is True
    assert status["windows"]["fast"]["firing"] is True
    assert status["windows"]["slow"]["firing"] is True
    assert status["windows"]["fast"]["burn_rate"] > FAST_BURN_THRESHOLD
    assert status["windows"]["slow"]["burn_rate"] > SLOW_BURN_THRESHOLD
    assert {state["tenant"]: state["alerting"]
            for state in tracker.status(3190.0)} == {"gold": True}


def test_alerts_resolve_once_the_burn_subsides():
    tracker = _breach_scenario()
    for k in range(20):
        now = 3000.0 + 10.0 * k
        tracker.observe("gold", 1.0, at=now)
        tracker.evaluate(now)
    # Recovery: good traffic resumes; the bad events age out of the
    # fast window and get diluted in the slow one.
    for i in range(31):
        tracker.observe("gold", 0.01, at=3200.0 + 10.0 * i)
    transitions = tracker.evaluate(3500.0)
    assert [(t["window"], t["state"]) for t in transitions] \
        == [("fast", "resolved"), ("slow", "resolved")]
    status = tracker.status(3500.0)[0]
    assert status["alerting"] is False
    assert status["windows"]["fast"]["fired_total"] == 1
    assert status["windows"]["slow"]["fired_total"] == 1
    # Overall compliance still reflects the 20 bad events forever.
    assert status["bad"] == 20
    assert status["events"] == 300 + 20 + 31
    assert status["compliance"] == pytest.approx(1.0 - 20 / 351)


def test_transition_payload_is_json_ready():
    tracker = _breach_scenario()
    transition = None
    for k in range(10):
        now = 3000.0 + 10.0 * k
        tracker.observe("gold", 1.0, at=now)
        hits = tracker.evaluate(now)
        if hits:
            transition = hits[0]
            break
    assert transition is not None
    assert transition["objective"] == "gold:p99<=0.1s@99%"
    assert transition["tenant"] == "gold"
    assert transition["window"] == "fast"
    assert transition["window_s"] == 300.0
    assert transition["state"] == "firing"
    assert transition["burn_rate"] >= transition["burn_threshold"]
    assert transition["bad"] >= 1


def test_wildcard_objective_sees_all_tenants():
    tracker = SLOTracker([SLOSpec.parse("*:p99<=0.1s@99%")])
    tracker.observe("gold", 0.01, at=1.0)
    tracker.observe("silver", 5.0, at=2.0)
    status = tracker.status(3.0)[0]
    assert status["events"] == 2
    assert status["bad"] == 1
    assert {state["tenant"]: state["alerting"]
            for state in tracker.status(3.0)} == {"*": False}


def test_objectives_are_isolated_per_tenant():
    tracker = SLOTracker([SLOSpec.parse("gold:p99<=0.1s@99%"),
                          SLOSpec.parse("silver:p99<=0.1s@99%")])
    for i in range(10):
        tracker.observe("gold", 5.0, at=float(i))      # gold is breaching
        tracker.observe("silver", 0.01, at=float(i))   # silver is fine
    transitions = tracker.evaluate(10.0)
    assert {t["tenant"] for t in transitions} == {"gold"}
    firing = {state["tenant"]: state["alerting"]
              for state in tracker.status(10.0)}
    assert firing["gold"] is True
    assert firing["silver"] is False
