"""Golden-snapshot regression harness (exact reproduction).

Re-runs the three pinned workloads captured by
``scripts/capture_golden.py`` and asserts the resulting digests are
*bit-identical* to ``tests/golden/*.json``.  Any change to virtual-time
event ordering — kernel refactors, scheduler tweaks, RNG stream moves —
shows up here immediately.

If a behaviour change is intended, regenerate the snapshots with::

    PYTHONPATH=src python scripts/capture_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO_ROOT / "tests" / "golden"

sys.path.insert(0, str(REPO_ROOT / "scripts"))

import capture_golden  # noqa: E402  (needs the path tweak above)


@pytest.mark.parametrize("workload", sorted(capture_golden.workload_configs()))
def test_digest_matches_golden_exactly(workload):
    config = capture_golden.workload_configs()[workload]
    path = GOLDEN_DIR / f"{workload}.json"
    assert path.exists(), (
        f"missing golden snapshot {path}; run scripts/capture_golden.py")
    digest = capture_golden.run_digest(workload, config)
    assert capture_golden.render(digest) == path.read_text(), (
        f"{workload}: execution digest drifted from the golden snapshot — "
        "virtual-time behaviour changed. If intended, regenerate with "
        "scripts/capture_golden.py and explain the change in the PR.")


def test_plane_sessions_match_golden_exactly():
    """The service path's "same events" proof: four virtual-time
    sessions through one ``ExecutionPlane`` admit in the same order after
    the same waits, report the same six outcome numbers per submission
    (floats by ``repr``) and dispatch the same number of kernel events
    as on the commit that captured them."""
    path = GOLDEN_DIR / "plane_sessions.json"
    sessions = capture_golden.plane_sessions()
    digest = capture_golden.plane_sessions_digest(sessions)
    assert capture_golden.render(digest) == path.read_text(), (
        "a plane session drifted from tests/golden/plane_sessions.json — "
        "the service path no longer does the same events. If intended, "
        "regenerate with scripts/capture_golden.py and explain why.")
    for name, session in sessions.items():
        # Every wait the kernel did not dispatch was taken in place.
        assert (session["processed_events"] + session["waits_in_place"]
                == PLANE_KERNEL_WORK[name]), name
        setup = capture_golden.PLANE_SETUPS.get(name,
                                                capture_golden.DEFAULT_SETUP)
        assert session["leased_bytes"] == 0, name
        assert ([o["result_tuples"] for o in session["outcomes"]]
                == [25] * setup.submissions)
        # The first `leases` start at once; the rest queue and leave by
        # priority.
        waits = [wait for _, wait in session["admissions"]]
        assert waits[:setup.leases] == ["0.0"] * setup.leases
        assert all(float(wait) > 0 for wait in waits[setup.leases:])


#: ``processed_events + waits_in_place`` of each plane session: its
#: ``processed_events`` before waits were taken in place (their golden
#: ``processed_events`` are the events dispatched since: 788 / 625 / 550
#: / 6,557; 701 / 622 for the two drawing sessions until a produced
#: message's hand-over hop began to be taken in place too).
PLANE_KERNEL_WORK = {"zero_wait": 1192, "wait_20": 1166,
                     "wait_200_jittered_slow_a": 1086,
                     "service_saturated": 9445}
#: ``processed_events`` of each session through the whole service.
SERVICE_EVENTS = {"zero_wait": 801, "wait_20": 642,
                  "wait_200_jittered_slow_a": 562,
                  "service_saturated": 6654}


@pytest.mark.parametrize("name", sorted(capture_golden.PLANE_SESSIONS))
def test_the_control_plane_is_kernel_neutral(name):
    """Each plane session through the whole ``QueryService`` on a
    ``Simulator``, tenants at the session's priorities: every outcome and
    every admission wait is the golden's, the control plane adds exactly
    one kernel event a submission — the hop that runs ``_finish`` — and,
    telemetry on in the session's params, no metric is ever written.

    The event count is exact on the sum with the waits taken in place:
    whether a wait is taken in place depends on what else is on the heap,
    and the service's hops are on it (its ``service_saturated`` session
    dispatches 6,654 events, not 6,557 + 96)."""
    golden = json.loads((GOLDEN_DIR / "plane_sessions.json").read_text())[name]
    setup = capture_golden.PLANE_SETUPS.get(name, capture_golden.DEFAULT_SETUP)
    session = capture_golden.service_session(
        capture_golden.PLANE_SESSIONS[name], setup)
    assert session["outcomes"] == golden["outcomes"]
    assert session["admissions"] == sorted(golden["admissions"])
    assert session["processed_events"] + session["waits_in_place"] \
        == PLANE_KERNEL_WORK[name] + setup.submissions
    assert session["processed_events"] == SERVICE_EVENTS[name]
    assert session["submitted"] == session["completed"] == setup.submissions
    assert session["active"] == 0 and session["leased_bytes"] == 0
    assert setup.params.telemetry_enabled
    assert session["registry_metrics"] == 0


def test_run_metrics_match_golden():
    """The whole registry of thirteen seeded one-shot runs: the same
    metric names, each counter equal in value to the golden's (an int
    where its owner counts in ints), every gauge and histogram exact."""
    golden = json.loads((GOLDEN_DIR / "run_metrics.json").read_text())
    digest = json.loads(capture_golden.render(
        capture_golden.registry_digest()))
    assert sorted(digest) == sorted(golden)
    for run, metrics in golden.items():
        assert sorted(digest[run]) == sorted(metrics), run
        for name, data in metrics.items():
            if data["kind"] == "counter":
                assert digest[run][name] == data, (run, name)
            else:
                assert (json.dumps(digest[run][name], sort_keys=True)
                        == json.dumps(data, sort_keys=True)), (run, name)


def test_goldens_cover_all_strategies():
    for workload in sorted(capture_golden.workload_configs()):
        path = GOLDEN_DIR / f"{workload}.json"
        data = json.loads(path.read_text())
        assert set(data["strategies"]) == set(capture_golden.STRATEGIES)
        for strategy, digest in data["strategies"].items():
            assert digest["result_tuples"] > 0, (
                f"{path.name}:{strategy} produced no tuples")
            # Stall attribution must account for every stalled second.
            total = sum(digest["stall_breakdown"].values())
            assert total == pytest.approx(digest["stall_time"], abs=1e-9)


#: ``Simulator.processed_events`` of the SEQ / MA / DSE run of each
#: golden workload.  A host-time optimisation does the same events.  A
#: change that removes a hop re-pins these downwards and shows the
#: digests above unmoved; one that adds a hop is a model change.  Last
#: moved when every source became one process on a computed production
#: clock and a DQP phase began to arm one stall guard, not one a stall
#: (from 3002 / 4219 / 4176, 2970 / 3932 / 3935, 4236 / 5339 / 5310).
KERNEL_EVENTS = {
    "baseline": [2230, 2937, 2919],
    "slow_a": [2211, 2823, 2791],
    "tight_memory": [3175, 3901, 3900],
}
#: ``processed_events + waits_in_place`` of the same runs.  Last moved
#: with :data:`KERNEL_EVENTS`, the producer's hops gone (from 5040 /
#: 6204 / 5668, 5031 / 6163 / 5818, 7623 / 9145 / 8449).
KERNEL_WORK = {
    "baseline": [4943, 5422, 4933],
    "slow_a": [4950, 5599, 5205],
    "tight_memory": [7524, 8511, 7843],
}


@pytest.mark.parametrize("workload", sorted(KERNEL_EVENTS))
def test_goldens_dispatch_the_same_kernel_events(workload, monkeypatch):
    import repro.core.engine as engine_module

    worlds = []
    make_world = engine_module.World

    def recording_world(*args, **kwargs):
        worlds.append(make_world(*args, **kwargs))
        return worlds[-1]

    monkeypatch.setattr(engine_module, "World", recording_world)
    capture_golden.run_digest(
        workload, capture_golden.workload_configs()[workload])
    assert ([world.sim.processed_events for world in worlds]
            == KERNEL_EVENTS[workload])
    assert ([world.sim.processed_events + world.sim.waits_in_place
             for world in worlds] == KERNEL_WORK[workload])
