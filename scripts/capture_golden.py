#!/usr/bin/env python
"""Capture golden `ExecutionResult` digests for the regression harness.

Runs SEQ / MA / DSE on three seeded workloads and writes one JSON file
per workload into ``tests/golden/``.  The digests pin down everything a
scheduling-relevant refactor could disturb: response time, tuple counts,
stall attribution, per-phase counters and the full decision audit log.

``plane_sessions.json`` does the same for the service path: four
sessions (three of twelve submissions on the default machine, one of 96
at the ``service_saturated`` bench configuration), each through one
:class:`~repro.service.backend.ExecutionPlane` whose kernel is a
``Simulator`` (``execute`` runs each submission through the
:meth:`~repro.core.multiquery.GovernedMachine.run_query` the multi-query
engine uses too) — admission order and waits, every submission's
outcome, the kernel's event count.

``run_metrics.json`` pins ``result.metrics.as_dict()`` — every counter,
gauge and histogram — of thirteen seeded one-shot runs with telemetry
on: the four scheduling strategies with A slowed tenfold and under a
2 MB memory budget, SEQ and DSE through timeouts, and DSE / DSE-ND / MA
with a bursty F.

``tests/test_golden_snapshots.py`` re-runs the same configurations and
asserts bit-identical digests, so any change to virtual-time event
ordering is caught immediately.  Regenerate (only when a behaviour
change is intended and understood) with::

    PYTHONPATH=src python scripts/capture_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.config import SimulationParameters
from repro.core.engine import QueryEngine
from repro.core.strategies import make_policy
from repro.experiments import figure5_workload
from repro.wrappers.delays import BurstyDelay, InitialDelay, UniformDelay

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"
STRATEGIES = ("SEQ", "MA", "DSE")


def workload_configs() -> dict[str, dict]:
    """The three pinned scenarios: name -> config."""
    return {
        # Fast-and-even: no degradations expected, pins the happy path.
        "baseline": dict(scale=0.25, seed=1, slow={}, overrides={}),
        # One starved source: exercises degrade / mf-stop / cf-create.
        "slow_a": dict(scale=0.25, seed=2, slow={"A": 12.0}, overrides={}),
        # Slowed F, a tight (but feasible) memory budget and a cardinality
        # misestimate: memory splits + degradation + reopt detection.
        "tight_memory": dict(
            scale=0.35, seed=3, slow={"F": 8.0}, errors={"J1": 3.0},
            overrides=dict(query_memory_bytes=6_000_000)),
    }


def run_digest(name: str, config: dict) -> dict:
    workload = figure5_workload(scale=config["scale"])
    qep = workload.qep
    if config.get("errors"):
        from repro.plan import build_qep
        qep = build_qep(workload.catalog, workload.tree,
                        actual_output_factors=config["errors"])
    digests = {}
    for strategy in STRATEGIES:
        params = SimulationParameters().with_overrides(
            telemetry_enabled=True, **config["overrides"])
        waits = {rel: params.w_min * config["slow"].get(rel, 1.0)
                 for rel in workload.relation_names}
        delays = {rel: UniformDelay(wait) for rel, wait in waits.items()}
        engine = QueryEngine(workload.catalog, qep,
                             make_policy(strategy), delays, params=params,
                             seed=config["seed"])
        result = engine.run()
        digests[strategy] = {
            "response_time": result.response_time,
            "result_tuples": result.result_tuples,
            "time_to_first_tuple": result.time_to_first_tuple,
            "planning_phases": result.planning_phases,
            "context_switches": result.context_switches,
            "batches_processed": result.batches_processed,
            "stall_time": result.stall_time,
            "degradations": result.degradations,
            "memory_splits": result.memory_splits,
            "timeouts": result.timeouts,
            "cpu_busy_time": result.cpu_busy_time,
            "disk_ios": result.disk_ios,
            "tuples_spilled": result.tuples_spilled,
            "tuples_reloaded": result.tuples_reloaded,
            "stall_breakdown": result.stall_by_cause(),
            "decisions": [record.to_dict() for record in result.decisions],
        }
    return {"workload": name, "config": {k: v for k, v in config.items()},
            "strategies": digests}


#: the runs whose whole metrics registry is pinned: scenario -> its
#: strategies, the delay models it puts in place of ``UniformDelay(w_min)``
#: (a function of ``w_min``; a bursty model keeps state, so one per run)
#: and its parameter overrides.
REGISTRY_SCENARIOS: dict[str, dict] = {
    "slow_a": dict(strategies=("SEQ", "MA", "DSE", "DSE-ND"),
                   delays=lambda w: {"A": UniformDelay(10 * w)},
                   overrides={}),
    "memory_2mb": dict(strategies=("SEQ", "MA", "DSE", "DSE-ND"),
                       delays=lambda w: {},
                       overrides=dict(query_memory_bytes=2_000_000)),
    "timeouts": dict(strategies=("SEQ", "DSE"),
                     delays=lambda w: {"A": InitialDelay(2.0,
                                                         UniformDelay(w))},
                     overrides=dict(timeout=0.5)),
    "bursty_f": dict(strategies=("DSE", "DSE-ND", "MA"),
                     delays=lambda w: {"F": BurstyDelay(2000, 0.1, w)},
                     overrides={}),
}


def registry_digest() -> dict:
    """``result.metrics.as_dict()`` of each :data:`REGISTRY_SCENARIOS`
    run (Figure 5 at scale 0.2, seed 1), keyed ``<scenario>/<strategy>``."""
    workload = figure5_workload(scale=0.2)
    digest = {}
    for name, scenario in REGISTRY_SCENARIOS.items():
        params = SimulationParameters().with_overrides(
            telemetry_enabled=True, **scenario["overrides"])
        for strategy in scenario["strategies"]:
            delays: dict = {rel: UniformDelay(params.w_min)
                            for rel in workload.relation_names}
            delays.update(scenario["delays"](params.w_min))
            result = QueryEngine(workload.catalog, workload.qep,
                                 make_policy(strategy), delays,
                                 params=params, seed=1).run()
            digest[f"{name}/{strategy}"] = result.metrics.as_dict()
    return digest


#: delay profile of each pinned plane session: sources that model no
#: delay, the tests' usual profile, a slow jittered one, and the
#: ``service_saturated`` bench workload's.
PLANE_SESSIONS = {
    "zero_wait": dict(wait_us=0.0),
    "wait_20": dict(wait_us=20.0),
    "wait_200_jittered_slow_a": dict(wait_us=200.0, jitter=0.5,
                                     slow={"A": 4.0}),
    "service_saturated": dict(wait_us=0.0, jitter=1.0),
}


class PlaneSetup(NamedTuple):
    """How a plane session runs: its machine, ``leases`` leases of
    ``memory_bytes`` (None: the default query memory) under priority
    admission, and ``submissions`` arrivals ``gap_s`` apart whose
    strategy and priority rotate through the two tuples."""

    params: SimulationParameters
    leases: int
    memory_bytes: Optional[int]
    submissions: int
    gap_s: float
    strategies: Tuple[str, ...]
    priorities: Tuple[float, ...]


#: twelve submissions at once (MA / DSE / SEQ, priority ``sequence % 3``)
#: over two 1 MiB leases on the default machine.
DEFAULT_SETUP = PlaneSetup(SimulationParameters(telemetry_enabled=True),
                           2, 1 << 20, 12, 0.0, ("MA", "DSE", "SEQ"),
                           (1.0, 2.0, 0.0))
#: ``bench/service_workloads.py`` in virtual time: its fast machine, its
#: 16 default-memory leases, its tenants' priorities and strategy
#: rotation, 96 submissions arriving 20 µs apart.
PLANE_SETUPS = {"service_saturated": PlaneSetup(
    SimulationParameters(cpu_mips=10_000.0, disk_latency=17e-5,
                         disk_seek_time=5e-5,
                         disk_transfer_rate=600_000_000.0,
                         telemetry_enabled=True),
    16, None, 96, 20e-6, ("DSE", "DSE", "MA", "SEQ"), (2.0, 1.0, 0.0))}


def plane_session(profile: dict, setup: PlaneSetup = DEFAULT_SETUP) -> dict:
    """``setup``'s submissions, each with ``profile``'s sources, through
    one virtual-time plane."""
    from repro.core.engine import main_value, spawn_main
    from repro.service.backend import ExecutionPlane
    from repro.sim import Simulator

    params = setup.params
    plane = ExecutionPlane(params, 7, _pool_bytes(setup), "priority",
                           name="virtual", kernel=Simulator())
    admissions: list = []
    mains = []

    def submit(index: int) -> None:
        sequence = index + 1
        name = f"s-{sequence:06d}"
        request = _request(profile, setup, index)
        mains.append(spawn_main(plane.kernel, plane.execute(
            name, request, sequence, request.resolved_budgets(params),
            setup.priorities[index % len(setup.priorities)],
            lambda run, waited: admissions.append([run.name, repr(waited)])),
            f"query:{name}"))

    _arrive(plane.kernel, setup, submit)
    plane.kernel.run()
    outcomes = []
    for main in mains:
        outcome = main_value(main)
        outcome.pop("query_spans")
        outcomes.append(_reprs(outcome))
    return {"profile": profile, "admissions": admissions,
            "outcomes": outcomes,
            "processed_events": plane.kernel.processed_events,
            "waits_in_place": plane.kernel.waits_in_place,
            "leased_bytes": plane.machine.broker.leased_bytes}


def service_session(profile: dict, setup: PlaneSetup = DEFAULT_SETUP) -> dict:
    """:func:`plane_session` through the whole control plane: one
    ``QueryService`` on a ``Simulator``, one tenant per priority of
    ``setup``.  Returns the counterpart of each field it pins (admission
    waits by submission, sorted), the service's counters after
    ``close()`` and how many metrics its machine registry holds."""
    from repro.resources import TenantSpec
    from repro.service import QueryService
    from repro.sim import Simulator

    priorities = setup.priorities
    service = QueryService(
        params=setup.params, seed=7,
        global_memory_bytes=_pool_bytes(setup), admission="priority",
        tenants=[TenantSpec(f"p{index}", priority=priority)
                 for index, priority in enumerate(priorities)],
        kernel=Simulator())
    records = []

    def submit(index: int) -> None:
        records.append(service.submit(_request(
            profile, setup, index, tenant=f"p{index % len(priorities)}")))

    service.open()
    _arrive(service.kernel, setup, submit)
    service.kernel.run()
    service.drain()
    service.close()
    return {"admissions": sorted([record.id, repr(record.admission_wait)]
                                 for record in records),
            "outcomes": [_reprs(dict(record.outcome or {},
                                     memory_peak_bytes=record.memory_peak_bytes))
                         for record in records],
            "processed_events": service.kernel.processed_events,
            "waits_in_place": service.kernel.waits_in_place,
            "leased_bytes": service.machine.broker.leased_bytes,
            "submitted": service.submitted, "completed": service.completed,
            "active": service.active,
            "registry_metrics": len(service.machine.telemetry.registry)}


def _pool_bytes(setup: PlaneSetup) -> int:
    return setup.leases * (setup.memory_bytes
                           or setup.params.query_memory_bytes)


def _request(profile: dict, setup: PlaneSetup, index: int, **fields: Any):
    """The ``index``-th arrival of a session (its sequence is index + 1)."""
    from repro.service import SubmissionRequest

    return SubmissionRequest(
        strategy=setup.strategies[index % len(setup.strategies)],
        scale=0.0005, seed=index + 1, memory_bytes=setup.memory_bytes,
        **profile, **fields)


def _arrive(kernel: Any, setup: PlaneSetup,
            submit: Callable[[int], None]) -> None:
    """Call ``submit(index)`` for each arrival: the first now, the rest
    ``gap_s`` apart on kernel timeouts (all now when ``gap_s`` is 0)."""
    for index in range(setup.submissions):
        if index and setup.gap_s:
            kernel.timeout(index * setup.gap_s).add_callback(
                lambda _event, index=index: submit(index))
        else:
            submit(index)


def _reprs(outcome: dict) -> dict:
    """An outcome with its floats as ``repr`` strings (exact in JSON)."""
    return {key: repr(value) if isinstance(value, float) else value
            for key, value in outcome.items()}


def plane_sessions() -> dict:
    """Every plane session by name, as :func:`plane_session` returns it."""
    return {name: plane_session(profile,
                                PLANE_SETUPS.get(name, DEFAULT_SETUP))
            for name, profile in PLANE_SESSIONS.items()}


def plane_sessions_digest(sessions: Optional[dict] = None) -> dict:
    """The golden file of :func:`plane_sessions`: each session without
    its ``waits_in_place`` — the golden pins the events the kernel
    dispatched, the tests the sum with the waits it took in place."""
    sessions = plane_sessions() if sessions is None else sessions
    return {name: {key: value for key, value in session.items()
                   if key != "waits_in_place"}
            for name, session in sessions.items()}


def render(digest: dict) -> str:
    """The exact text of a golden file."""
    return json.dumps(digest, indent=2, sort_keys=True) + "\n"


def main() -> int:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    digests = {name: run_digest(name, config)
               for name, config in workload_configs().items()}
    digests["plane_sessions"] = plane_sessions_digest()
    digests["run_metrics"] = registry_digest()
    for name, digest in digests.items():
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(render(digest))
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
