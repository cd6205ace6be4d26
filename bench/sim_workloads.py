"""The two virtual-time workloads: ``sim_sweep`` and
``sim_multiquery_tightmem``.

Both run a fixed list of specs through their public ``execute()`` in
repeated *passes* until the measuring time is used up.  The simulated
statistics of a pass are seeded-deterministic, so every pass must give
the same digest (and, for seed 1 at full size, the one pinned in
``expected.json``); host time is what varies and what is reported.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import hostclock
from declared import (
    RunResult,
    median,
    own_peak_rss_mb,
    per_layer_zeros,
    percentile,
)

MB = 1024 * 1024
EXPECTED = Path(__file__).resolve().parent / "expected.json"

#: Figure 5's final result at scale 1.0 (``FIGURE5_INTERMEDIATES["J5"]``).
FULL_RESULT_TUPLES = 50_000


@dataclass
class SimWorkload:
    name: str
    specs: List[Any]
    #: simulated queries one ``execute()`` of each spec answers.
    queries: List[int]
    expected_tuples: int
    #: key into ``expected.json`` when this exact input is pinned there.
    pinned: Optional[str] = None

    @property
    def queries_per_pass(self) -> int:
        return sum(self.queries)


def build_sweep(seed: int, quick: bool) -> SimWorkload:
    """Figure-5 plan, slowed relation in {A, F} x retrieval time in
    {2, 5, 8}*scale s x strategy in {SEQ, MA, DSE}: 18 runs a pass."""
    from repro.config import SimulationParameters
    from repro.experiments.slowdown import slowdown_waits
    from repro.experiments.workloads import figure5_workload
    from repro.parallel.spec import RunSpec, uniform_delay_specs

    scale = 0.02 if quick else 1.0
    params = SimulationParameters()
    workload = figure5_workload(scale=scale)
    specs = []
    for relation in ("A", "F"):
        for seconds in (2.0, 5.0, 8.0):
            waits = slowdown_waits(workload, relation, seconds * scale,
                                   params)
            for strategy in ("SEQ", "MA", "DSE"):
                specs.append(RunSpec(strategy, seed, scale,
                                     uniform_delay_specs(waits), params))
    return SimWorkload(
        "sim_sweep", specs, [1] * len(specs),
        expected_tuples=max(1, round(FULL_RESULT_TUPLES * scale)),
        pinned="sim_sweep" if seed == 1 and not quick else None)


def build_tightmem(seed: int, quick: bool) -> SimWorkload:
    """Eight staggered queries squeezed into a 10 MB pool, once under
    DSE and once under MA, with the whole telemetry hook table on."""
    from repro.config import SimulationParameters
    from repro.parallel.spec import MultiQuerySpec

    # The lease sizes are tuned to the 0.5-scale hash tables, so the
    # quick variant shrinks pool and leases with the data.
    shrink = 0.04 if quick else 1.0
    scale = 0.5 * shrink
    queries = 8
    params = SimulationParameters(telemetry_enabled=True,
                                  telemetry_spans=True,
                                  dynamic_budget_replanning=True)
    specs = [MultiQuerySpec(
        strategy, 4 * params.w_min, queries, seed + 2, scale,
        inter_arrival=0.05, params=params,
        memory_bytes=int(4.0 * MB * shrink),
        min_memory_bytes=int(3.7 * MB * shrink),
        max_memory_bytes=int(8 * MB * shrink),
        global_memory_bytes=int(10 * MB * shrink),
        admission="priority") for strategy in ("DSE", "MA")]
    return SimWorkload(
        "sim_multiquery_tightmem", specs, [queries, queries],
        expected_tuples=max(1, round(FULL_RESULT_TUPLES * scale)),
        pinned=("sim_multiquery_tightmem" if seed == 1 and not quick
                else None))


def build(name: str, seed: int, quick: bool) -> SimWorkload:
    return (build_sweep if name == "sim_sweep" else build_tightmem)(
        seed, quick)


# -- simulated statistics ----------------------------------------------------

def simulated_stats(result: Any) -> Dict[str, Any]:
    """Every simulated statistic of one ``execute()``; floats as ``repr``
    so the digest pins them bit for bit."""
    if hasattr(result, "outcomes"):
        return {
            "makespan": repr(result.makespan),
            "queries": [{
                "name": o.name,
                "response_time": repr(o.response_time),
                "result_tuples": o.result_tuples,
                "stall_time": repr(o.stall_time),
                "splits": o.memory_splits,
                "degradations": o.degradations,
                "admission_wait": repr(o.admission_wait),
                "planning_phases": o.planning_phases,
            } for o in result.outcomes],
        }
    return {
        "response_time": repr(result.response_time),
        "result_tuples": result.result_tuples,
        "batches": result.batches_processed,
        "stall_time": repr(result.stall_time),
        "splits": result.memory_splits,
        "degradations": result.degradations,
        "planning_phases": result.planning_phases,
    }


def digest(stats: List[Dict[str, Any]]) -> str:
    blob = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Pass:
    """Host timings and simulated facts of one pass over the specs."""

    #: per ``execute()``: wall and CPU seconds at the reference host
    #: speed (see hostclock.py), and the wall as the clock read it.
    walls: List[float] = field(default_factory=list)
    cpus: List[float] = field(default_factory=list)
    raw_walls: List[float] = field(default_factory=list)
    speeds: List[float] = field(default_factory=list)  #: calibration samples
    stats: List[Dict[str, Any]] = field(default_factory=list)
    #: facts for the per-layer table (summed over the pass).
    facts: Dict[str, float] = field(default_factory=dict)
    admission_waits: List[float] = field(default_factory=list)
    wrong_results: int = 0

    @property
    def wall(self) -> float:
        return sum(self.walls)

    @property
    def raw_wall(self) -> float:
        return sum(self.raw_walls)


def _fold_facts(pass_: Pass, result: Any, expected_tuples: int) -> None:
    facts = pass_.facts
    outcomes = getattr(result, "outcomes", None)
    rows = outcomes if outcomes is not None else [result]
    for row in rows:
        facts["core.dqo_splits"] = (facts.get("core.dqo_splits", 0)
                                    + row.memory_splits)
        facts["core.degradations"] = (facts.get("core.degradations", 0)
                                      + row.degradations)
        facts["core.sim_stall_s"] = (facts.get("core.sim_stall_s", 0.0)
                                     + row.stall_time)
        if row.result_tuples != expected_tuples:
            pass_.wrong_results += 1
    if outcomes is not None:
        pass_.admission_waits.extend(o.admission_wait for o in outcomes)
    else:
        facts["results.batches"] = (facts.get("results.batches", 0)
                                    + result.batches_processed)
    facts["observability.spans_recorded"] = (
        facts.get("observability.spans_recorded", 0)
        + len(result.spans or ()))
    facts["observability.decisions_recorded"] = (
        facts.get("observability.decisions_recorded", 0)
        + len(result.decisions))


def run_pass(workload: SimWorkload, specs: Optional[List[Any]] = None,
             tracer: Any = None) -> Pass:
    """Execute every spec once, serially, timing each ``execute()``
    between two host-speed samples."""
    from trace_targets import DRIVER

    timer = hostclock.SectionTimer()
    pass_ = Pass(speeds=timer.samples)
    for index, spec in enumerate(specs if specs is not None
                                 else workload.specs):
        if tracer is None:
            section = spec.execute
        else:
            def section(spec: Any = spec, index: int = index) -> Any:
                tracer.run_id = f"run-{index}"
                tracer.enter(DRIVER.name, tracer.open(DRIVER))
                try:
                    return spec.execute()
                finally:
                    tracer.exit()
                    tracer.run_id = None
        result, wall, cpu, factor = timer.run(section)
        pass_.raw_walls.append(wall)
        pass_.walls.append(wall * factor)
        pass_.cpus.append(cpu * factor)
        pass_.stats.append(simulated_stats(result))
        _fold_facts(pass_, result, workload.expected_tuples)
    return pass_


def check_passes(workload: SimWorkload, passes: List[Pass]) -> List[str]:
    """Digest and result checks over the passes of one run."""
    problems = []
    digests = [digest(p.stats) for p in passes]
    if len(set(digests)) > 1:
        problems.append(
            f"{workload.name}: passes of one seeded run disagree "
            f"({len(set(digests))} distinct digests)")
    if workload.pinned is not None:
        pinned = json.loads(EXPECTED.read_text())[workload.pinned]
        if digests[0] != pinned:
            problems.append(
                f"{workload.name}: simulated statistics digest "
                f"{digests[0][:16]}… differs from expected.json "
                f"{pinned[:16]}…")
    wrong = sum(p.wrong_results for p in passes)
    if wrong:
        problems.append(
            f"{workload.name}: {wrong} queries returned a result size "
            f"other than {workload.expected_tuples}")
    return problems


def undisturbed(values: List[float]) -> float:
    """The lower quartile of repeated timings of identical work.

    Passes repeat exactly the same computation, so their times differ
    only by what the host added; interference only ever adds.  The
    lower quartile sits where the host left the pass alone, yet is not
    a single lucky sample the way the minimum is (the calibration
    factor errs both ways).  Over a noisy stretch of this sandbox the
    median of 7 passes moved 12 % between runs, the low end 4 %.
    """
    return percentile(values, 0.25)


def _kind_latencies_ms(workload: SimWorkload, passes: List[Pass]
                       ) -> List[float]:
    """One latency per simulated query: the undisturbed time, over the
    passes, of the ``execute()`` that answered it.  The percentiles
    reported are then across the pass's run kinds, not across noise."""
    latencies = []
    for index, queries in enumerate(workload.queries):
        wall = undisturbed([p.walls[index] for p in passes])
        latencies.extend([wall * 1e3] * queries)
    return latencies


def measure(workload: SimWorkload, seconds: float) -> RunResult:
    """The untraced run: whole passes until ``seconds`` are used."""
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(run_pass(workload))
        if time.perf_counter() - started >= seconds:
            break
    per_pass = workload.queries_per_pass
    latencies = _kind_latencies_ms(workload, passes)
    problems = check_passes(workload, passes)
    attempted = per_pass * len(passes)
    failed = attempted if problems else 0  # a bad digest fails every query
    metrics = {
        "capacity_qps": per_pass / undisturbed([p.wall for p in passes]),
        "cpu_ms_per_query": (undisturbed([sum(p.cpus) for p in passes])
                             / per_pass * 1e3),
        "latency_p50_ms": percentile(latencies, 0.50),
        "latency_p95_ms": percentile(latencies, 0.95),
        "peak_rss_mb": own_peak_rss_mb(),
    }
    return RunResult(metrics, attempted, failed, problems, info={
        "passes": len(passes),
        "pass_wall_s": [round(p.raw_wall, 3) for p in passes],
        "pass_wall_at_reference_s": [round(p.wall, 3) for p in passes],
        "host_speed": round(hostclock.mean_speed(
            [s for p in passes for s in p.speeds]), 3),
        "digest": digest(passes[0].stats),
    })


# -- traced run ----------------------------------------------------------------

def _telemetry_on(specs: List[Any]) -> List[Any]:
    """The same specs with the public telemetry switches on."""
    from dataclasses import replace

    return [replace(spec, params=spec.params.with_overrides(
        telemetry_enabled=True, telemetry_spans=True)) for spec in specs]


def trace(workload: SimWorkload, seconds: float, installation: Any
          ) -> RunResult:
    """The traced run: one untraced reference pass (for the overhead
    ratio), on ``sim_sweep`` one untraced pass with telemetry on, then
    traced passes for the rest of the time (at least one)."""
    tracer = installation.tracer
    started = time.perf_counter()
    reference = run_pass(workload)
    telemetry_ratio = 0.0
    if workload.name == "sim_sweep":
        with_telemetry = run_pass(workload, _telemetry_on(workload.specs))
        telemetry_ratio = with_telemetry.wall / reference.wall
    installation.apply()

    from trace_targets import CALL_COUNTS

    passes: List[Pass] = []
    snapshots = [tracer.counts(CALL_COUNTS)]
    while True:
        passes.append(run_pass(workload, tracer=tracer))
        snapshots.append(tracer.counts(CALL_COUNTS))
        if time.perf_counter() - started >= seconds:
            break
    traced_wall = sum(p.raw_wall for p in passes)
    count = len(passes)
    pass_wall = traced_wall / count

    problems = check_passes(workload, [reference] + passes)
    deltas = [{key: after[key] - before.get(key, 0) for key in after}
              for before, after in zip(snapshots, snapshots[1:])]
    if any(delta != deltas[0] for delta in deltas[1:]):
        problems.append(f"{workload.name}: traced call counts differ "
                        f"between passes of one seeded run")
    counts = deltas[0]
    facts = passes[0].facts
    batches = counts["core.dqp_batches"]
    if facts.get("results.batches", batches) != batches:
        problems.append(
            f"{workload.name}: traced batch count {batches} differs from "
            f"the results' batches_processed {facts['results.batches']}")

    metrics = per_layer_zeros()
    for metric, self_s in tracer.self_by_metric(installation.targets).items():
        metrics[metric] = self_s / count
    metrics.update({name: float(value) for name, value in counts.items()})
    metrics.update({name: float(value) for name, value in facts.items()
                    if name in metrics})
    queued = [wait for wait in passes[0].admission_waits if wait > 0]
    speeds = [sample for p in passes for sample in p.speeds]
    metrics.update({
        "exec.sim_events_per_s": counts.get("exec.sim_events", 0) / pass_wall,
        "core.dqp_batches_per_s": batches / pass_wall,
        "resources.admission_queued": float(len(queued)),
        "resources.admission_wait_p50_ms": median(queued) * 1e3,
        "observability.telemetry_overhead_ratio": telemetry_ratio,
        "gen.sample_count": float(workload.queries_per_pass * count),
        "gen.host_speed": hostclock.mean_speed(speeds),
        "trace.overhead_ratio":
            (sum(p.wall for p in passes) / count) / reference.wall,
        "trace.untiled_fraction":
            abs(traced_wall - tracer.root_busy()) / traced_wall,
    })
    attempted = workload.queries_per_pass * (count + 1)
    failed = attempted if problems else 0
    return RunResult(metrics, attempted, failed, problems, info={
        "traced_passes": count, "traced_pass_wall_s": pass_wall,
        "reference_pass_wall_s": reference.raw_wall,
        "digest": digest(passes[0].stats),
    })
