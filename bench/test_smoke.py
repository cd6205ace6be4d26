"""Smoke test of the benchmark itself (``python -m pytest bench -q``).

Not part of tier-1 (``testpaths`` is ``tests/``).  Each workload runs at
``--quick`` in both modes and must print every declared metric with its
declared unit; ``BENCHMARK.json`` must list exactly what the harness
prints.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import declared  # noqa: E402

MANIFEST = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _contract_line(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--quick", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", declared.workload_names())
def test_quick_run_prints_every_end_to_end_metric(workload: str) -> None:
    line = _contract_line(workload, trace=0)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    expected = {name: unit for name, unit, _b, _bound in declared.END_TO_END}
    assert {name: entry["unit"] for name, entry
            in line["metrics"].items()} == expected
    assert all(entry["value"] > 0 for entry in line["metrics"].values())


#: each workload must stress the layers it was chosen for (and leave the
#: others alone), even at --quick.
STRESSES = {
    "sim_sweep": lambda m: (
        m["core.dqo_splits"] == 0 and m["resources.admission_requests"] == 0
        and m["resources.broker_busy_s"] < 0.01 * m["core.dqp_busy_s"]
        and m["trace.untiled_fraction"] < 0.02),
    "sim_multiquery_tightmem": lambda m: (
        m["core.dqo_splits"] > 0 and m["core.degradations"] > 0
        and m["resources.admission_queued"] > 0
        and m["mediator.temp_io_ops"] > 0
        and m["observability.spans_recorded"] > 0
        and m["trace.untiled_fraction"] < 0.02),
    "service_saturated": lambda m: (
        m["exec.aio_idle_fraction"] < 0.05
        and m["resources.admission_queued"] > 0
        and m["service.completed"] == m["service.submitted"] > 0),
    "serve_http_pool": lambda m: (
        m["exec.aio_idle_fraction"] > 0.7
        and m["service.http.poll_rtt_p50_ms"] > 0
        and m["service.completed"] == m["service.submitted"] > 0),
}


@pytest.mark.parametrize("workload", declared.workload_names())
def test_quick_traced_run_prints_every_per_layer_metric(workload: str
                                                        ) -> None:
    line = _contract_line(workload, trace=1)
    assert line["correct"] is True
    expected = {name: unit for name, unit, _b in declared.PER_LAYER}
    assert {name: entry["unit"] for name, entry
            in line["metrics"].items()} == expected
    assert line["metrics"]["trace.unresolved_targets"]["value"] == 0
    assert STRESSES[workload]({name: entry["value"] for name, entry
                               in line["metrics"].items()})
    trace = json.loads((BENCH / "out" / f"trace_{workload}.json").read_text())
    assert trace["workload"] == workload and trace["spans"]


def test_manifest_lists_exactly_what_the_harness_declares() -> None:
    assert MANIFEST["run_seconds"] == declared.RUN_SECONDS
    assert MANIFEST["command"] == ["python3", "bench/run.py"]
    assert [(w["name"], w["why"]) for w in MANIFEST["workloads"]] == \
        declared.WORKLOADS
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in MANIFEST["end_to_end"]] == declared.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in MANIFEST["per_layer"]] == declared.PER_LAYER


def test_unresolved_target_is_reported_not_fatal() -> None:
    import tracer

    missing = tracer.Target("repro.no_such_module:Gone.method", "x.busy_s")
    installation = tracer.Installation(
        tracer.Tracer(), [missing], [], tracer.Target("process:other", "x"))
    assert installation.unresolved[0] == missing.name
