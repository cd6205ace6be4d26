"""The sharded execution plane (`repro serve --workers N`).

Pins the worker-pool backend at three layers: the pure
:class:`~repro.service.workers.PoolScheduler` dispatch/steal policy and
the :meth:`~repro.resources.broker.MemoryBroker.carve_even` pool split
(plain unit tests — the policies are deterministic by construction),
one real two-worker service session (completion, per-worker accounting,
fleet snapshot/metrics/top rendering, cross-backend determinism), and
the failure semantics: a SIGKILLed worker fails its in-flight
submissions with ``worker-died``, is respawned, and the service keeps
serving with consistent counters.
"""

import asyncio
import json
import os
import pickle
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro

from repro.common.errors import ConfigurationError, SimulationError
from repro.observability.top import (
    render_service_top,
    stream_snapshots_reconnect,
    worker_transitions,
)
from repro.resources import MemoryBroker, TenantSpec
from repro.service import (
    PoolScheduler,
    QueryService,
    SubmissionRequest,
    service_prometheus_text,
)
from repro.service import workers
from repro.service.workers import (
    WorkerPoolBackend,
    read_message,
    write_message,
)

#: small-and-fast submission shape used by the live pool tests; the
#: memory budget is far under the per-worker carve so workers overlap.
FAST = dict(scale=0.0005, wait_us=20.0, memory_bytes=256 << 10)

#: what ``SubmissionRecord.outcome`` holds, whichever backend ran it.
OUTCOME_KEYS = {"response_time", "result_tuples", "time_to_first_tuple",
                "batches_processed", "stall_time"}

#: where the process table is read from (Linux); the checks that read
#: it are skipped elsewhere.
PROC = Path("/proc")

#: the directory holding this checkout's ``repro`` package.
SOURCE_ROOT = str(Path(repro.__file__).resolve().parents[1])

#: traced bytes ``WorkerHost._done`` may net per job once the worker
#: is warm (32 on CPython 3.11; a result kept per job adds hundreds).
CLOSE_OUT_NET_BYTES = 64


# --------------------------------------------------------------------------
# PoolScheduler: the pure dispatch/steal policy
# --------------------------------------------------------------------------

def test_assign_picks_least_backlog_ties_round_robin():
    scheduler = PoolScheduler([0, 1, 2])
    assert scheduler.assign("a") == 0      # all empty: first in turn
    assert scheduler.assign("b") == 1
    assert scheduler.assign("c") == 2
    assert scheduler.assign("d") == 0      # tied again: the next turn
    scheduler.active[1] += 3               # worker 1 is busy running
    assert scheduler.assign("e") == 2      # backlog counts active too


def test_jobs_arriving_at_zero_backlog_split_evenly_without_steals():
    """Each job finishes before the next arrives, so every backlog is 0
    on arrival (an open loop under capacity): the pool offers work in id
    order, as ``WorkerPoolBackend._pump`` does, and still each worker
    runs its own half."""
    scheduler = PoolScheduler([0, 1])
    ran = {0: 0, 1: 0}
    for index in range(10):
        owner = scheduler.assign(f"j{index}")
        for worker_id in (0, 1):
            item = scheduler.next_for(worker_id)
            if item is not None:
                assert item == f"j{index}"
                ran[worker_id] += 1
                scheduler.finished(worker_id)
                assert worker_id == owner
    assert ran == {0: 5, 1: 5}
    assert scheduler.steals_total == 0


def test_a_down_owners_queue_is_stolen_at_once():
    scheduler = PoolScheduler([0, 1])
    scheduler.down.add(1)                  # dead, respawning
    scheduler.assign("a")
    assert scheduler.assign("b") == 1
    assert scheduler.next_for(0) == "a"
    assert scheduler.next_for(0) == "b"           # stolen
    assert scheduler.steals == {0: 1, 1: 0}
    scheduler.down.discard(1)              # back up: runs its own again
    assert scheduler.assign("c") == 1
    assert scheduler.next_for(0) is None


def test_next_for_prefers_own_queue_and_respects_window():
    scheduler = PoolScheduler([0, 1], window=2)
    for job in ("a", "b", "c", "d"):
        scheduler.assign(job)
    assert scheduler.next_for(0) == "a"
    assert scheduler.next_for(0) == "c"
    assert scheduler.next_for(0) is None   # window full (2 active)
    assert scheduler.steals_total == 0
    scheduler.finished(0)
    scheduler.active[1] = 2                # worker 1's window is full
    assert scheduler.next_for(0) == "b"    # own empty: steals
    assert scheduler.steals == {0: 1, 1: 0}


def test_steal_takes_from_the_longest_queue_ties_lowest_id():
    scheduler = PoolScheduler([0, 1, 2])
    # Build uneven queues directly: worker 1 holds 2 jobs, worker 2
    # holds 1, both with full windows; worker 0 is idle and empty.
    for job, victim in (("a", 1), ("b", 1), ("c", 2)):
        scheduler.queues[victim].append(job)
        scheduler.assigned[job] = victim
    scheduler.active[1] = scheduler.active[2] = scheduler.window
    assert scheduler.next_for(0) == "a"   # longest queue first
    assert scheduler.next_for(0) == "b"   # 1 and 2 tied: lowest
    assert scheduler.next_for(0) == "c"
    assert scheduler.steals == {0: 3, 1: 0, 2: 0}
    assert scheduler.steals_total == 3


def test_finished_and_forget_bookkeeping():
    scheduler = PoolScheduler([0])
    scheduler.assign("a")
    scheduler.assign("b")
    assert scheduler.queued_total() == 2
    assert scheduler.forget("b") is True          # still queued: dropped
    assert scheduler.queued_total() == 1
    assert scheduler.next_for(0) == "a"
    assert scheduler.forget("a") is False         # already dispatched
    scheduler.finished(0)
    with pytest.raises(SimulationError):
        scheduler.finished(0)                     # nothing active


def test_scheduler_rejects_bad_shapes():
    with pytest.raises(ConfigurationError):
        PoolScheduler([])
    with pytest.raises(ConfigurationError):
        PoolScheduler([0], window=0)


# --------------------------------------------------------------------------
# carve_even: the pool split behind the fleet
# --------------------------------------------------------------------------

def test_carve_even_splits_spare_and_keeps_remainder():
    broker = MemoryBroker(10)
    leases = broker.carve_even(3)
    assert [lease.total_bytes for lease in leases] == [3, 3, 3]
    assert broker.spare_bytes() == 1              # remainder stays
    for lease in leases:
        broker.release(lease)
    assert broker.spare_bytes() == 10


def test_carve_even_unbounded_pool_carves_nothing():
    assert MemoryBroker(None).carve_even(4) == []


def test_carve_even_refuses_an_impossible_split():
    with pytest.raises(SimulationError):
        MemoryBroker(2).carve_even(3)             # share would be 0
    with pytest.raises(SimulationError):
        MemoryBroker(8).carve_even(0)


# --------------------------------------------------------------------------
# One real two-worker session
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pool_session():
    """Start, exercise and stop one governed two-worker service."""
    out = {}

    async def scenario():
        service = QueryService(
            seed=11, global_memory_bytes=8 << 20,
            tenants=[TenantSpec("gold", priority=2.0)],
            publish_interval_s=0.05, workers=2)
        await service.start()
        out["describe_at_start"] = service.backend.describe()

        records = [service.submit(SubmissionRequest(
            tenant="gold", seed=index, **FAST)) for index in range(6)]
        await asyncio.gather(*(record.done.wait() for record in records))
        out["mid_snapshot"] = service.snapshot()
        out["records"] = records

        # A submission whose minimum exceeds one worker's carve can
        # never run anywhere: refused up front, with the pool-specific
        # message (the global pool would have fit it).
        try:
            service.submit(SubmissionRequest(
                tenant="gold", memory_bytes=6 << 20))
        except ConfigurationError as exc:
            out["refusal"] = str(exc)

        await service.stop()
        out["final_describe"] = service.backend.describe()
        out["steals"] = service.backend.steals_total
        out["service"] = service

    asyncio.run(scenario())
    return out


def test_pool_submissions_complete_with_worker_attribution(pool_session):
    for record in pool_session["records"]:
        assert record.state == "done", record.error
        assert record.worker_id in (0, 1)
        assert record.to_dict(0.0)["worker"] == record.worker_id
        assert record.outcome["result_tuples"] > 0
    # Both carves are equal halves of the 8 MiB machine pool.
    workers = {row["id"]: row for row in pool_session["final_describe"]}
    assert workers[0]["pool_bytes"] == workers[1]["pool_bytes"] == 4 << 20


def test_pool_snapshot_carries_the_fleet(pool_session):
    snapshot = pool_session["mid_snapshot"]
    assert snapshot["backend"] == "worker-pool"
    rows = {row["id"]: row for row in snapshot["workers"]}
    assert sorted(rows) == [0, 1]
    assert all(row["state"] == "up" for row in rows.values())
    assert sum(row["completed"] for row in rows.values()) == 6
    assert snapshot["steals"] == sum(row["steals"]
                                     for row in rows.values())
    import json
    json.dumps(snapshot)  # JSON-safe end to end


def test_pool_worker_counters_survive_stop(pool_session):
    rows = {row["id"]: row for row in pool_session["final_describe"]}
    assert all(row["state"] == "down" for row in rows.values())
    assert sum(row["completed"] for row in rows.values()) == 6
    assert pool_session["steals"] == sum(row["steals"]
                                         for row in rows.values())


def test_oversized_submission_names_the_carve(pool_session):
    assert "per-worker memory carve-out" in pool_session["refusal"]
    assert pool_session["service"].rejected == 1


def test_prometheus_text_exposes_per_worker_series(pool_session):
    text = service_prometheus_text(pool_session["mid_snapshot"])
    for metric in ("repro_service_worker_up", "repro_service_worker_active",
                   "repro_service_worker_queued",
                   "repro_service_worker_completed_total",
                   "repro_service_worker_steals_total",
                   "repro_service_worker_restarts_total"):
        assert f'{metric}{{worker="0"}}' in text
        assert f'{metric}{{worker="1"}}' in text
    assert 'repro_service_worker_up{worker="0"} 1.0' in text


def test_render_service_top_shows_the_worker_section(pool_session):
    lines = render_service_top(pool_session["mid_snapshot"], width=100)
    header = next(line for line in lines if line.startswith("WORKER"))
    assert "fleet 2/2 up" in header
    worker_rows = [line for line in lines
                   if line.startswith(("0 ", "1 "))]
    assert len(worker_rows) == 2


@pytest.fixture(scope="module")
def solo_session():
    """``pool_session``'s six submissions on the in-process backend."""
    out = {}

    async def scenario():
        service = QueryService(
            seed=11, global_memory_bytes=8 << 20,
            tenants=[TenantSpec("gold", priority=2.0)],
            publish_interval_s=0.05)  # workers=1: InProcessBackend
        await service.start()
        records = [service.submit(SubmissionRequest(
            tenant="gold", seed=index, **FAST)) for index in range(6)]
        await asyncio.gather(*(record.done.wait() for record in records))
        await service.stop()
        out["records"] = records

    asyncio.run(scenario())
    return out


def test_pool_results_match_the_in_process_backend(pool_session,
                                                   solo_session):
    """Stealing must not change results: source streams are seeded per
    submission, not per worker, so the same request sequence yields the
    same tuple counts on either backend."""
    pooled = [r.outcome["result_tuples"] for r in pool_session["records"]]
    solo = [r.outcome["result_tuples"] for r in solo_session["records"]]
    assert pooled == solo


def test_a_submission_reports_one_outcome_on_either_backend(pool_session,
                                                            solo_session):
    """Both transports carry the execution plane's outcome dict: the
    records differ in the worker id and in what follows the wall clock
    (times, and through batch interleaving the counts and the peak)."""
    for pooled, solo in zip(pool_session["records"],
                            solo_session["records"]):
        assert set(pooled.outcome) == set(solo.outcome) == OUTCOME_KEYS
        assert pooled.outcome["result_tuples"] \
            == solo.outcome["result_tuples"]
        for record in (pooled, solo):
            assert record.outcome["batches_processed"] > 0
            assert record.memory_peak_bytes > 0
            assert record.run is None
        assert set(pooled.to_dict(0.0)) == set(solo.to_dict(0.0))
        assert pooled.worker_id in (0, 1) and solo.worker_id is None


#: strategies, scales and delay profiles apart; seconds of modelled
#: time in all, since each runs on the wall clock twice.
REPEATABLE = [
    dict(strategy="DSE", scale=0.0005, wait_us=50.0, seed=1,
         memory_bytes=1 << 20),
    dict(strategy="SEQ", scale=0.002, wait_us=20.0, seed=2,
         memory_bytes=1 << 20),
    dict(strategy="MA", scale=0.005, wait_us=0.0, seed=3,
         memory_bytes=2 << 20),
    dict(strategy="DSE", scale=0.02, wait_us=10.0, slow={"A": 10.0}, seed=4,
         memory_bytes=4 << 20),
    dict(strategy="SEQ", scale=0.05, wait_us=5.0, jitter=0.5, seed=5,
         memory_bytes=8 << 20),
]


def test_a_solo_submission_reports_its_virtual_time_run_on_either_backend(
        virtual_outcome, assert_same_outcome):
    """A submission's sources are a seeded delay profile run by the
    modelled wrapper on the executing plane's kernel, so with the
    machine to itself it is the virtual-time run of its own sources:
    in-process, on a pool worker, every time."""
    def one_at_a_time(workers):
        async def scenario():
            service = QueryService(seed=11, global_memory_bytes=64 << 20,
                                   workers=workers)
            await service.start()
            try:
                records = []
                for body in REPEATABLE:
                    record = service.submit(SubmissionRequest(**body))
                    await asyncio.wait_for(record.done.wait(), timeout=60.0)
                    records.append(record)
                return service, records
            finally:
                await service.stop()
        return asyncio.run(scenario())

    for workers in (1, 2):
        service, records = one_at_a_time(workers)
        for record in records:
            assert (record.worker_id is None) == (workers == 1)
            assert_same_outcome(record, virtual_outcome(
                service.seed, service.params, record.request,
                record.sequence))


def test_the_pool_starts_no_thread():
    """Each end of a worker's socket is a stream on its process's own
    loop: the coordinator runs no thread for the pool, before, during or
    after a run."""
    async def scenario():
        before = set(threading.enumerate())
        service = QueryService(seed=5, global_memory_bytes=8 << 20,
                               workers=2)
        await service.start()
        record = service.submit(SubmissionRequest(**FAST))
        await asyncio.wait_for(record.done.wait(), timeout=60.0)
        during = set(threading.enumerate())
        await service.stop()
        return record, before, during, set(threading.enumerate())

    record, before, during, after = asyncio.run(scenario())
    assert record.state == "done", record.error
    assert during == before and after == before


# --------------------------------------------------------------------------
# The process tree: a coordinator and its N workers, nothing else
# --------------------------------------------------------------------------

def _parent_pid(pid):
    # /proc/PID/stat: "pid (comm) state ppid ..."; comm may hold spaces.
    stat = (PROC / str(pid) / "stat").read_text()
    return int(stat.rsplit(")", 1)[1].split()[1])


#: a fresh coordinator, started without PYTHONPATH from outside the
#: checkout (argv: the source root): it starts a two-worker pool, reads
#: its own process tree, runs one submission and prints what it saw.
TREE_PROBE = """
import asyncio, json, os, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from repro.service import QueryService, SubmissionRequest

def parent_pid(pid):
    stat = Path(f"/proc/{pid}/stat").read_text()
    return int(stat.rsplit(")", 1)[1].split()[1])

def maps(pid):
    return Path(f"/proc/{pid}/maps").read_text()

async def main():
    service = QueryService(seed=3, global_memory_bytes=8 << 20,
                           publish_interval_s=0.05, workers=2)
    await service.start()
    seen = {"workers": [row["pid"] for row in service.backend.describe()]}
    try:
        if Path("/proc").is_dir():
            me = os.getpid()
            seen["children"] = {}
            for entry in Path("/proc").iterdir():
                try:
                    if entry.name.isdigit() and parent_pid(entry.name) == me:
                        seen["children"][entry.name] = (
                            entry / "cmdline").read_bytes().decode()
                except OSError:
                    pass  # exited while listed
            seen["coordinator_maps_numpy"] = "numpy" in maps(me)
            seen["workers_map_numpy"] = [
                "_multiarray_umath" in maps(pid) for pid in seen["workers"]]
        record = service.submit(SubmissionRequest(
            scale=0.0005, wait_us=20.0, memory_bytes=256 << 10))
        await asyncio.wait_for(record.done.wait(), timeout=60.0)
        seen["state"] = record.state
        seen["numpy_in_coordinator"] = "numpy" in sys.modules
    finally:
        await service.stop()
    print(json.dumps(seen))

asyncio.run(main())
"""


@pytest.fixture(scope="module")
def fresh_pool_tree(tmp_path_factory):
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-c", TREE_PROBE, SOURCE_ROOT],
        cwd=tmp_path_factory.mktemp("elsewhere"), env=env,
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_the_cli_and_the_service_import_no_numpy():
    """The coordinator never draws, so nothing it imports loads numpy."""
    done = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
         "import repro.cli, repro.service; print('numpy' in sys.modules)",
         SOURCE_ROOT], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def test_a_pool_started_without_pythonpath_runs_a_job(fresh_pool_tree):
    """A worker child is told where the coordinator's ``repro`` is."""
    assert fresh_pool_tree["state"] == "done"
    assert fresh_pool_tree["numpy_in_coordinator"] is False


@pytest.mark.skipif(not PROC.is_dir(), reason="reads /proc")
def test_the_pool_tree_is_the_coordinator_and_its_workers(fresh_pool_tree):
    children = fresh_pool_tree["children"]
    assert sorted(map(int, children)) == sorted(fresh_pool_tree["workers"])
    assert not any("resource_tracker" in cmdline
                   for cmdline in children.values())
    assert fresh_pool_tree["coordinator_maps_numpy"] is False


@pytest.mark.skipif(not PROC.is_dir(), reason="reads /proc")
def test_a_worker_maps_numpy_before_it_is_ready(fresh_pool_tree):
    """Imports happen before ``ready``, never inside a query's latency."""
    assert fresh_pool_tree["workers_map_numpy"] == [True, True]


# --------------------------------------------------------------------------
# Failure semantics: death, respawn, consistent counters
# --------------------------------------------------------------------------

def test_worker_crash_fails_inflight_then_respawns():
    async def scenario():
        service = QueryService(
            seed=3, global_memory_bytes=8 << 20,
            tenants=[TenantSpec("gold", priority=2.0)],
            publish_interval_s=0.05, workers=2)
        await service.start()
        backend = service.backend
        assert isinstance(backend, WorkerPoolBackend)

        # Long-running submissions (heavy per-batch waits) so the kill
        # lands mid-query; one per worker by least-loaded assignment.
        records = [service.submit(SubmissionRequest(
            tenant="gold", seed=index, scale=0.002, wait_us=5000.0,
            memory_bytes=256 << 10)) for index in range(2)]

        victim = None
        for _ in range(400):
            for wid in sorted(backend._slots):
                slot = backend._slots[wid]
                if slot.inflight and slot.pid:
                    victim = wid
                    break
            if victim is not None:
                break
            await asyncio.sleep(0.025)
        assert victim is not None, "no submission ever reached a worker"
        doomed_ids = set(backend._slots[victim].inflight)
        dead_pid = backend._slots[victim].pid
        os.kill(dead_pid, signal.SIGKILL)

        # Every submission resolves: the victim's in flight fail with
        # the worker-died verdict, the peer's complete normally.  No
        # hang — bound the wait so a regression fails instead of
        # stalling the suite.
        await asyncio.wait_for(
            asyncio.gather(*(record.done.wait() for record in records)),
            timeout=120.0)
        doomed = [record for record in records if record.id in doomed_ids]
        assert doomed, "the killed worker had nothing in flight"
        for record in doomed:
            assert record.state == "failed"
            assert "worker-died" in record.error
        for record in records:
            if record.id not in doomed_ids:
                assert record.state == "done", record.error

        # The slot is respawned with a bumped restart counter...
        for _ in range(400):
            if backend._slots[victim].up:
                break
            await asyncio.sleep(0.025)
        assert backend._slots[victim].up
        assert backend._slots[victim].restarts == 1
        if PROC.is_dir():
            # The respawn is the coordinator's own child, and the dead
            # worker was reaped: a zombie would keep its /proc entry.
            assert _parent_pid(backend._slots[victim].pid) == os.getpid()
            assert not (PROC / str(dead_pid)).exists()

        # ...and the service keeps serving on the refreshed fleet.
        again = service.submit(SubmissionRequest(
            tenant="gold", seed=99, **FAST))
        await asyncio.wait_for(again.done.wait(), timeout=120.0)
        assert again.state == "done", again.error

        snapshot = service.snapshot()
        assert snapshot["failed"] == len(doomed)
        assert snapshot["completed"] == len(records) - len(doomed) + 1
        rows = {row["id"]: row for row in snapshot["workers"]}
        assert rows[victim]["restarts"] == 1
        assert sum(row["failed"] for row in rows.values()) == len(doomed)
        text = service_prometheus_text(snapshot)
        assert (f'repro_service_worker_restarts_total'
                f'{{worker="{victim}"}} 1.0') in text
        await service.stop()

    asyncio.run(scenario())


#: a worker boot (argv: the source root, the socket's descriptor) that
#: is worker 1's first process a stuck worker and otherwise the real
#: one.  The stuck worker speaks the frame format with the standard
#: library alone: it answers ``ready``, takes one job, writes half of
#: its result frame and sleeps.  MARKER is the file that says it ran.
TORN_FRAME_BOOT = """
import os, pickle, socket, struct, sys, time
sys.path.insert(0, sys.argv[1])
sock = socket.socket(fileno=int(sys.argv[2]))
def frame(message):
    body = pickle.dumps(message)
    return struct.pack("!i", len(body)) + body
def read(size):
    data = b""
    while len(data) < size:
        data += sock.recv(size - len(data))
    return data
while True:  # peek at the first frame: the real worker reads it again
    first = sock.recv(1 << 20, socket.MSG_PEEK)
    if len(first) >= 4 and len(first) >= 4 + struct.unpack("!i", first[:4])[0]:
        break
    time.sleep(0.01)
worker_id, config = pickle.loads(first[4:])
if worker_id != 1 or os.path.exists(MARKER):
    from repro.service.workers import worker_main
    worker_main(sock.detach())
    sys.exit()
open(MARKER, "w").close()
read(len(first))
sock.sendall(frame({"op": "ready", "worker": 1, "pool": config["memory_bytes"],
                    "peak_rss_bytes": 0}))
job = pickle.loads(read(struct.unpack("!i", read(4))[0]))
torn = frame({"op": "result", "id": job["id"], "ok": True, "payload": {},
              "wait_s": 0.0, "stalls": {}, "peak_rss_bytes": 0})
sock.sendall(torn[:len(torn) // 2])
time.sleep(600)
"""


def test_a_worker_stopped_inside_a_frame_holds_back_no_other_worker(
        monkeypatch, tmp_path):
    """Worker 1 stops halfway through a result frame: worker 0's results
    still arrive and the snapshot still answers.  Killed, worker 1 fails
    its job with ``worker-died`` and its slot respawns."""
    monkeypatch.setattr(workers, "_WORKER_BOOT", TORN_FRAME_BOOT.replace(
        "MARKER", repr(str(tmp_path / "torn-frame-sent"))))

    async def scenario():
        service = QueryService(seed=3, global_memory_bytes=8 << 20,
                               workers=2)
        await service.start()
        backend = service.backend
        torn_pid = backend._slots[1].pid
        try:
            # Least-loaded assignment: the first to worker 0, the second
            # to worker 1, and, while worker 1 holds it, all later ones
            # to worker 0.
            first = service.submit(SubmissionRequest(seed=0, **FAST))
            stuck = service.submit(SubmissionRequest(seed=1, **FAST))
            records = [first]
            await asyncio.wait_for(first.done.wait(), timeout=20.0)
            for seed in range(2, 6):
                records.append(service.submit(
                    SubmissionRequest(seed=seed, **FAST)))
                await asyncio.wait_for(records[-1].done.wait(), timeout=20.0)
            assert [(r.state, r.worker_id) for r in records] \
                == [("done", 0)] * 5
            rows = {row["id"]: row for row in service.snapshot()["workers"]}
            assert rows[0]["completed"] == 5 and rows[0]["active"] == 0
            assert rows[1]["active"] == 1 and stuck.state == "running"
        finally:
            os.kill(torn_pid, signal.SIGKILL)
        try:
            await asyncio.wait_for(stuck.done.wait(), timeout=20.0)
            assert stuck.state == "failed"
            assert "worker-died" in stuck.error
            for _ in range(400):
                if backend._slots[1].up:
                    break
                await asyncio.sleep(0.025)
            assert backend._slots[1].up
            assert backend._slots[1].restarts == 1
            assert backend._slots[1].pid != torn_pid
        finally:
            await service.stop()

    asyncio.run(scenario())


# --------------------------------------------------------------------------
# worker_transitions: the `repro watch` fleet notices
# --------------------------------------------------------------------------

def _fleet(*rows):
    return {"workers": [
        {"id": wid, "state": state, "restarts": restarts}
        for wid, state, restarts in rows]}


def test_worker_transitions_reports_flips_and_respawns():
    before = _fleet((0, "up", 0), (1, "up", 0))
    assert worker_transitions(before, _fleet((0, "up", 0),
                                             (1, "up", 0))) == []
    assert worker_transitions(before, _fleet((0, "down", 0),
                                             (1, "up", 0))) \
        == ["worker 0 down"]
    # A death + respawn between two publishes never flips the state;
    # the restart counter still surfaces it.
    assert worker_transitions(before, _fleet((0, "up", 1),
                                             (1, "up", 0))) \
        == ["worker 0 died and was respawned (restarts 1, now up)"]


def test_worker_transitions_without_history_or_fleet():
    assert worker_transitions(None, _fleet((0, "up", 0))) == []
    assert worker_transitions({"workers": []}, {"kind": "service"}) == []


# --------------------------------------------------------------------------
# fail_fast reconnect: a dead endpoint is one crisp error
# --------------------------------------------------------------------------

def _dying_stream(frames_by_call):
    calls = {"count": 0}

    def stream(endpoint, timeout, status):
        frames = frames_by_call[min(calls["count"],
                                    len(frames_by_call) - 1)]
        calls["count"] += 1
        for frame in frames:
            status.frames += 1
            yield frame
        raise ConfigurationError("connection refused")

    stream.calls = calls
    return stream


def test_fail_fast_raises_on_a_never_connected_stream():
    stream = _dying_stream([[]])
    with pytest.raises(ConfigurationError, match="connection refused"):
        list(stream_snapshots_reconnect(
            "127.0.0.1:1", fail_fast=True, sleep=lambda _s: None,
            _stream=stream))
    assert stream.calls["count"] == 1     # no silent retry loop


def test_fail_fast_still_reconnects_once_a_frame_arrived():
    stream = _dying_stream([[{"now": 1.0}], []])
    with pytest.raises(ConfigurationError):
        list(stream_snapshots_reconnect(
            "127.0.0.1:1", fail_fast=True, max_failures=2,
            sleep=lambda _s: None, _stream=stream))
    # First connection produced a frame (resetting the failure streak),
    # so the drops afterwards get the full reconnect budget: the good
    # connection plus two retries before giving up.
    assert stream.calls["count"] == 3


# --------------------------------------------------------------------------
# The one query lifecycle inside a worker process
# --------------------------------------------------------------------------

class MemoryPipe:
    """The coordinator's end of a worker's socket, on the pool's own
    framing: it writes every job at once, then ends its stream (the
    coordinator gone, which makes the host finish in-flight work and
    exit), and keeps each message the worker sends in ``sent``."""

    def __init__(self, messages):
        self.messages = list(messages)
        self.sent = []
        self.writer = None

    def open(self):
        for message in self.messages:
            write_message(self.writer, message)
        self.writer.write_eof()

    def receive(self, message):
        self.sent.append(message)

    async def talk(self, reader, writer):
        self.writer = writer
        self.open()
        try:
            while True:
                self.receive(await read_message(reader))
        except EOFError:
            writer.close()
            await writer.wait_closed()


def _serve(host, pipe):
    """Run ``host.serve`` against ``pipe`` over a socketpair until the
    host has returned and ``pipe`` has read its stream to the end."""
    async def session():
        ours, theirs = socket.socketpair()
        coordinator = await asyncio.open_connection(sock=ours)
        worker = await asyncio.open_connection(sock=theirs)
        await asyncio.gather(host.serve(*worker), pipe.talk(*coordinator))

    asyncio.run(session())


def _job(index, memory_bytes, **request):
    body = dict(FAST, seed=index, memory_bytes=memory_bytes, **request)
    return {"op": "job", "id": f"s-{index:06d}",
            "request": SubmissionRequest(**body).to_dict(),
            "sequence": index, "priority": 0.0, "initial": memory_bytes,
            "min_bytes": memory_bytes, "max_bytes": memory_bytes}


def _host(pool_bytes, **params):
    from repro.config import SimulationParameters
    from repro.service.workers import WorkerHost

    return WorkerHost(0, {
        "params": SimulationParameters(telemetry_enabled=True, **params),
        "seed": 11, "memory_bytes": pool_bytes, "admission": "priority"})


def _run_host(jobs, pool_bytes):
    pipe = MemoryPipe(jobs)
    host = _host(pool_bytes, telemetry_spans=True)
    _serve(host, pipe)
    results = {message["id"]: message for message in pipe.sent
               if message["op"] == "result"}
    return host, results


def test_a_burst_of_jobs_then_the_end_of_the_stream_gets_every_answer():
    """Twelve job frames in one write burst, then EOF: the host answers
    each exactly once, without a thread of its own, and only then closes
    its stream and returns."""
    threads = []

    class WatchingPipe(MemoryPipe):
        def receive(self, message):
            super().receive(message)
            threads.append(set(threading.enumerate()))

    jobs = [_job(index, 256 << 10) for index in range(1, 13)]
    pipe = WatchingPipe(jobs)
    host = _host(4 * (256 << 10))
    before = set(threading.enumerate())
    _serve(host, pipe)
    assert [message["op"] for message in pipe.sent] \
        == ["ready"] + ["result"] * len(jobs)
    assert sorted(message["id"] for message in pipe.sent[1:]) \
        == [job["id"] for job in jobs]
    assert all(message["ok"] for message in pipe.sent[1:])
    assert all(seen == before for seen in threads)
    assert host.machine.broker.leased_bytes == 0


def _own_spans(recorder, name):
    """The spans one job owns on a worker's shared recorder: its query
    span's subtree plus the admission wait that query names as cause."""
    from repro.observability import SPAN_QUERY

    (root,) = [span for span in [span for span in recorder.spans if span.kind == SPAN_QUERY]
               if span.name == name]
    own, frontier = [], [root]
    while frontier:
        span = frontier.pop()
        own.append(span)
        frontier.extend(child for child in recorder.spans
                        if child.parent_id == span.span_id)
    if root.caused_by is not None:
        own.append(recorder.spans[root.caused_by])
    return own


def test_worker_queued_job_gets_the_admission_wait_span_and_cause():
    """A job queued behind a worker's carve is attributed exactly like
    one queued in the coordinator: stall, span, cause link — and the
    spans shipped over the pipe hold the wait span."""
    from repro.observability import SPAN_ADMISSION_WAIT, SPAN_QUERY

    # 1.5 MiB each into a 2 MiB carve: the second job must queue.
    host, results = _run_host([_job(1, 3 << 19), _job(2, 3 << 19)],
                                 pool_bytes=2 << 20)
    first, second = results["s-000001"], results["s-000002"]
    assert first["ok"] and second["ok"]
    assert first["wait_s"] == 0.0 and second["wait_s"] > 0.0

    spans = host.machine.telemetry.spans
    waits = [span for span in spans.spans if span.kind == SPAN_ADMISSION_WAIT]
    assert [span.name for span in waits] == ["s-000002"]
    assert waits[0].end - waits[0].start == pytest.approx(second["wait_s"])
    causes = {span.name: span.caused_by
              for span in [span for span in spans.spans if span.kind == SPAN_QUERY]}
    assert causes == {"s-000001": None, "s-000002": waits[0].span_id}
    assert second["stalls"]["admission-wait"] \
        == pytest.approx(second["wait_s"])
    own = _own_spans(spans, "s-000002")
    assert waits[0] in own
    assert len(second["payload"]["query_spans"]) == len(own) < len(spans)
    assert host.machine.broker.leased_bytes == 0


def test_a_worker_machine_keeps_no_metrics_registry():
    """Telemetry is on in the worker's params, yet its jobs write no
    metric: nothing on the service path reads a registry."""
    host, results = _run_host([_job(1, 1 << 20)], pool_bytes=2 << 20)
    assert results["s-000001"]["ok"]
    assert len(host.machine.telemetry.registry) == 0


def test_worker_span_summary_covers_the_job_not_the_workers_history():
    """Job 3 reports the same summary whether or not jobs 1-2 ran on the
    worker before (and beside) it."""
    from repro.observability import span_summary

    third = _job(3, 1 << 20, scale=0.02, strategy="SEQ")
    busy, busy_results = _run_host(
        [_job(1, 1 << 20), _job(2, 1 << 20), third], pool_bytes=4 << 20)
    idle, idle_results = _run_host([third], pool_bytes=4 << 20)

    summaries = []
    for host, results in ((busy, busy_results), (idle, idle_results)):
        payload = results["s-000003"]["payload"]
        own = _own_spans(host.machine.telemetry.spans, "s-000003")
        own.sort(key=lambda span: span.span_id)
        assert payload["query_spans"] == own
        summary = span_summary(payload["query_spans"])
        assert summary["response_time"] == payload["response_time"]
        summaries.append(summary)
    with_history, alone = summaries
    assert with_history["spans"] < len(busy.machine.telemetry.spans)
    assert alone["spans"] == len(idle.machine.telemetry.spans)
    # Stall spans follow the wall clock, so counts match only closely.
    assert with_history["spans"] == pytest.approx(alone["spans"], rel=0.1)


@pytest.mark.parametrize("how", ["mid-stream", "at-open"])
def test_worker_source_failure_leaks_nothing(how, break_service_source):
    """However a source dies, the worker answers the job and returns
    its lease to the carve."""
    break_service_source(how)
    # Mid-stream: F ships 204 of its 3,600 tuples, then raises.
    request = {"scale": 0.02} if how == "mid-stream" else {}
    host, results = _run_host([_job(1, 1 << 20, **request)],
                              pool_bytes=2 << 20)
    answer = results["s-000001"]
    assert not answer["ok"]
    if how == "mid-stream":
        assert "'F'" in answer["error"]
        assert "broke mid-stream" in answer["error"]
    else:
        assert "cannot be opened" in answer["error"]
    assert host.machine.broker.leased_bytes == 0
    assert not host.machine.broker.leases


def test_worker_jobs_leave_nothing_to_the_cyclic_collector(
        assert_no_cyclic_garbage, break_service_source):
    """40 jobs over 4 leases on one worker, every fourth losing a source
    mid-stream: each is freed by reference count as it is answered."""
    break_service_source("mid-stream", every=4)
    # The machine and its connection outlive their jobs; the jobs are
    # what is counted.  (On CPython 3.11 an asyncio socket transport is
    # a reference cycle of its own, one per connection, not per job.)
    hosts = []

    def run():
        pipe = MemoryPipe([_job(index, 256 << 10, scale=0.002)
                           for index in range(1, 41)])
        host = _host(4 * (256 << 10), telemetry_spans=True,
                     cpu_mips=10_000.0)
        hosts.append((host, pipe))
        _serve(host, pipe)
        answers = [message["ok"] for message in pipe.sent
                   if message["op"] == "result"]
        assert len(answers) == 40 and answers.count(False) == 10
    assert_no_cyclic_garbage(run)


# --------------------------------------------------------------------------
# A worker does not age: cost, memory and wire size are flat in uptime
# --------------------------------------------------------------------------

class SerialPipe(MemoryPipe):
    """One job in flight at a time: each result releases the next job,
    the last one ends the stream (the coordinator gone)."""

    def open(self):
        self._pending = iter(self.messages)
        self.release()

    def release(self):
        message = next(self._pending, None)
        if message is None:
            self.writer.write_eof()
        else:
            write_message(self.writer, message)

    def receive(self, message):
        self.sent.append(message)
        if message["op"] == "result":
            self.release()


def _keys(value):
    """Every dict key anywhere inside ``value``."""
    if isinstance(value, dict):
        for key, inner in value.items():
            yield key
            yield from _keys(inner)
    elif isinstance(value, (list, tuple)):
        for inner in value:
            yield from _keys(inner)


def test_governed_worker_cost_and_wire_size_do_not_grow_with_uptime(
        monkeypatch):
    """400 jobs through one governed worker: the audit log is a ring,
    every result message is the same small shape, and closing out job
    400 costs what closing out job 1 did — nothing per-job copies,
    walks or serialises the machine's history."""
    import pickle
    import time
    from statistics import fmean

    from repro.service.backend import DEFAULT_AUDIT_CAPACITY
    from repro.service.workers import WorkerHost

    done_seconds = []
    real_done = WorkerHost._done

    def timed_done(self, message, process):
        started = time.perf_counter()
        real_done(self, message, process)
        done_seconds.append(time.perf_counter() - started)

    monkeypatch.setattr(WorkerHost, "_done", timed_done)
    jobs = 400
    pipe = SerialPipe([_job(index, 256 << 10, wait_us=0.0)
                       for index in range(1, jobs + 1)])
    # A fast modelled machine keeps the test host-bound and short.
    host = _host(16 * (256 << 10), cpu_mips=10_000.0)
    _serve(host, pipe)

    results = [message for message in pipe.sent
               if message["op"] == "result"]
    assert len(results) == jobs and all(r["ok"] for r in results)

    audit = host.machine.telemetry.audit
    assert audit.capacity == DEFAULT_AUDIT_CAPACITY
    assert len(audit.records) <= audit.capacity
    assert audit.appended >= jobs

    first, last = results[0], results[-1]
    for message in results:
        assert set(message) == set(first)
        assert set(message["payload"]) == set(first["payload"])
        assert not {"decisions", "metrics", "samples", "spans",
                    "fragment_stats"} & set(_keys(message))
    assert abs(len(pickle.dumps(last)) - len(pickle.dumps(first))) <= 16

    assert fmean(done_seconds[300:]) <= 3 * fmean(done_seconds[:100])


class CountingPipe(SerialPipe):
    """:class:`SerialPipe` that keeps no message: it checks each result
    as it arrives, and the next job waits for :meth:`release`, so what
    the worker allocates while closing a job out is counted alone."""

    def __init__(self, messages):
        super().__init__(messages)
        #: pickled lengths of the result messages (one, if all equal).
        self.sizes = set()
        self.answered = self.failed = 0

    def receive(self, message):
        if message["op"] == "result":
            self.sizes.add(len(pickle.dumps(message)))
            self.answered += 1
            self.failed += not message["ok"]


def test_governed_worker_close_out_is_flat_in_uptime_by_count(monkeypatch):
    """The count-based twin of the timing test above: from job 1 to job
    400 every result message pickles to the same number of bytes, and
    closing job 301-400 out nets no more traced bytes (tracemalloc,
    across ``WorkerHost._done``) than closing job 1-100 out, and at most
    :data:`CLOSE_OUT_NET_BYTES` — nothing per job is kept or grows."""
    import gc
    import tracemalloc
    from statistics import median

    from repro.service.workers import WorkerHost

    jobs = 400
    pipe = CountingPipe([_job(index, 256 << 10, wait_us=0.0)
                         for index in range(1, jobs + 1)])
    net = []
    real_done = WorkerHost._done

    def nothing(self, message, process):
        pass

    def counted_done(self, message, process):
        # The same window around a call that does nothing: what the
        # counting itself allocates, subtracted.
        before = tracemalloc.get_traced_memory()[0]
        nothing(self, message, process)
        overhead = tracemalloc.get_traced_memory()[0] - before
        before = tracemalloc.get_traced_memory()[0]
        real_done(self, message, process)
        net.append(tracemalloc.get_traced_memory()[0] - before - overhead)
        pipe.release()

    monkeypatch.setattr(WorkerHost, "_done", counted_done)
    host = _host(16 * (256 << 10), cpu_mips=10_000.0)
    gc.disable()  # a collection inside a window frees unrelated bytes
    tracemalloc.start()
    try:
        _serve(host, pipe)
    finally:
        tracemalloc.stop()
        gc.enable()

    assert pipe.answered == jobs and pipe.failed == 0
    assert len(pipe.sizes) == 1, pipe.sizes
    early, late = median(net[:100]), median(net[300:])
    assert late <= early, (early, late)
    assert late <= CLOSE_OUT_NET_BYTES, late
