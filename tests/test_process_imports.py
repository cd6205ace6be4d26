"""Each process imports what it runs.

Package ``__init__``s resolve their exports on first access
(:mod:`repro.lazy`), so ``import repro`` loads no subpackage; a pool
worker imports what a job executes and nothing of the control plane,
the sweep engine or the CLI; a serving process imports everything it
needs before it serves, so no import lands inside a query's latency;
and the CLI loads only the module of the command it runs.  Every check
runs in a fresh interpreter: this one has imported everything already.
"""

import asyncio
import json
import subprocess
import sys
from ast import literal_eval
from pathlib import Path

import pytest

import repro
from repro.config import SimulationParameters
from repro.service import QueryService, SubmissionRequest, workers

SOURCE_ROOT = str(Path(repro.__file__).resolve().parents[1])
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

#: the census's deny-list: what a pool worker never executes.
from serve_tree_census import denied  # noqa: E402  (needs the path above)

#: one job of each strategy, small enough to finish in milliseconds.
JOBS = [dict(strategy=strategy, scale=0.0005, wait_us=20.0, seed=seed,
             memory_bytes=1 << 20)
        for seed, strategy in enumerate(("DSE", "MA", "SEQ"))]

#: telemetry on: the registry, periodic samples and the span recorder.
TELEMETRY = SimulationParameters().with_overrides(
    telemetry_enabled=True, telemetry_sample_interval=0.001,
    telemetry_spans=True)


def fresh_modules(program, *args):
    """The ``repro`` modules a fresh interpreter has loaded after
    ``program`` (which may print other lines before them)."""
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); " + program
         + "; print(sorted(m for m in sys.modules"
           " if m.split('.')[0] == 'repro'))", SOURCE_ROOT, *args],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_importing_repro_loads_no_subpackage():
    *_, loaded = fresh_modules("import repro")
    assert loaded == repr(["repro", "repro.lazy"])


def test_a_worker_imports_none_of_the_denied_modules():
    *_, loaded = fresh_modules(
        "import repro.service.workers; "
        "from repro.service.backend import import_execution_modules; "
        "import_execution_modules()")
    assert denied(literal_eval(loaded)) == []


@pytest.mark.parametrize("argv", [
    ["submit", "--connect", "127.0.0.1:1", "--memory", "8M"],
    ["top", "--connect", "127.0.0.1:1", "--once"],
])
def test_submit_and_top_load_no_engine_and_no_numpy(argv):
    """Both exit 2 here (nothing listens on port 1): what matters is
    what parsing and running the command imported."""
    outcome, loaded = fresh_modules(
        "from repro.cli import main; status = main(sys.argv[2:]); "
        "print(status, 'numpy' in sys.modules)", *argv)
    assert outcome == "2 False"
    modules = literal_eval(loaded)
    assert "repro.cli." + argv[0] in modules
    assert [m for m in modules if m.startswith("repro.core")] == []


#: a worker boot (argv: the source root, the socket's descriptor) that
#: is the real worker, except that every message it writes first
#: appends ``[pid, op, its repro modules]`` to LOG.
RECORDING_BOOT = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
from repro.service import workers
write = workers.write_message
def recording(writer, message):
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "repro")
    with open(LOG, "a") as log:
        log.write(json.dumps([os.getpid(), message["op"], loaded]) + "\\n")
    write(writer, message)
workers.write_message = recording
workers.worker_main(int(sys.argv[2]))
"""


def test_a_worker_imports_nothing_once_it_is_ready(monkeypatch, tmp_path):
    """Each worker's modules at ``ready`` are its modules after a DSE,
    an MA and a SEQ job with telemetry on: no import runs inside a
    query's latency."""
    log = tmp_path / "worker-modules.jsonl"
    monkeypatch.setattr(workers, "_WORKER_BOOT",
                        RECORDING_BOOT.replace("LOG", repr(str(log))))

    async def scenario():
        service = QueryService(params=TELEMETRY, seed=3, workers=2)
        await service.start()
        try:
            for body in JOBS:
                record = service.submit(SubmissionRequest(**body))
                await asyncio.wait_for(record.done.wait(), timeout=60.0)
                assert record.state == "done", record.error
        finally:
            await service.stop()

    asyncio.run(scenario())
    by_worker = {}
    for line in log.read_text().splitlines():
        pid, op, loaded = json.loads(line)
        by_worker.setdefault(pid, []).append((op, loaded))
    results = 0
    for messages in by_worker.values():
        (first_op, ready), *rest = messages
        assert first_op == "ready"
        assert denied(ready) == []
        for op, loaded in rest:
            assert op == "result"
            assert loaded == ready
            results += 1
    assert results == len(JOBS)


#: a fresh in-process service (telemetry on) prints its modules after
#: ``start()`` and after its first three submissions.
IN_PROCESS_PROBE = """
import asyncio, sys
from repro.config import SimulationParameters
from repro.service import QueryService, SubmissionRequest

JOBS = {jobs!r}

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "repro")

async def main():
    service = QueryService(params=SimulationParameters().with_overrides(
        telemetry_enabled=True, telemetry_sample_interval=0.001,
        telemetry_spans=True), seed=3)
    await service.start()
    try:
        started = loaded()
        for body in JOBS:
            record = service.submit(SubmissionRequest(**body))
            await asyncio.wait_for(record.done.wait(), timeout=60.0)
            assert record.state == "done", record.error
        print(started)
        print(loaded())
    finally:
        await service.stop()

asyncio.run(main())
"""


def test_an_in_process_service_imports_nothing_once_started():
    started, after, _ = fresh_modules(
        "exec(sys.argv[2])", IN_PROCESS_PROBE.format(jobs=JOBS))
    assert after == started
