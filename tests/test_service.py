"""The always-on multi-tenant query service (`repro serve`).

Pins the service core: strict submission validation, the bounded
latency window, one multi-tenant service session on a ``Simulator``
(submissions complete, tenants account, snapshots stay JSON-safe and
bounded, drain refuses new work and flushes the flight recorder), and
the fleet view `repro top` renders from a service snapshot.  What only
the wall clock can show — arrival stamping, no asyncio task per
submission, latency against response time on a busy loop — runs on the
``AsyncioKernel``.
"""

import asyncio
import json
import math
from fractions import Fraction

import pytest

from repro.common.errors import ConfigurationError
from repro.config import SimulationParameters
from repro.observability.flight import load_flight_dump
from repro.observability.top import render_service_top, render_top
from repro.resources import QuotaExceeded, TenantSpec
from repro.service import (
    SERVICE_SNAPSHOT_VERSION,
    LatencyWindow,
    QueryService,
    ServiceDraining,
    SubmissionRequest,
    service_prometheus_text,
)
from repro.service.stats import percentile
from repro.sim import Simulator

#: small-and-fast submission shape used by every live test here.
FAST = dict(scale=0.0005, wait_us=20.0, memory_bytes=1 << 20)


# --------------------------------------------------------------------------
# SubmissionRequest validation
# --------------------------------------------------------------------------

def test_from_json_round_trips_a_full_body():
    request = SubmissionRequest.from_json({
        "tenant": "acme", "strategy": "MA", "scale": 0.01, "seed": 3,
        "wait_us": 50, "jitter": 0.5, "slow": {"A": 10},
        "priority": 1.5, "memory_bytes": 1 << 20})
    assert request.tenant == "acme"
    assert request.strategy == "MA"
    assert request.slow == {"A": 10.0}
    assert request.priority == 1.5
    # to_dict -> from_json is stable.
    assert SubmissionRequest.from_json(request.to_dict()) == request


@pytest.mark.parametrize("body", [
    [],                                       # not an object
    {"bogus": 1},                             # unknown field
    {"seed": "7"},                            # wrong type
    {"seed": True},                           # bool is not an int here
    {"scale": -1.0},
    {"strategy": "NOPE"},
    {"jitter": 2.0},
    {"tenant": ""},
    {"slow": {"A": "x"}},
    {"memory_bytes": 0},
    {"min_memory_bytes": 2048, "max_memory_bytes": 1024},
    # json.loads accepts NaN and Infinity: none is a number here.
    json.loads('{"wait_us": Infinity}'),
    json.loads('{"wait_us": NaN}'),
    json.loads('{"scale": NaN}'),
    json.loads('{"scale": Infinity}'),
    json.loads('{"slow": {"A": Infinity}}'),
    json.loads('{"slow": {"A": NaN}}'),
    json.loads('{"priority": NaN}'),
    json.loads('{"priority": -Infinity}'),
])
def test_from_json_rejects_bad_bodies(body):
    with pytest.raises(ConfigurationError):
        SubmissionRequest.from_json(body)


def test_resolved_budgets_defaults_and_clamping():
    params = SimulationParameters()
    initial, lo, hi = SubmissionRequest().resolved_budgets(params)
    assert initial == lo == hi == params.query_memory_bytes
    initial, lo, hi = SubmissionRequest(
        min_memory_bytes=10, max_memory_bytes=100).resolved_budgets(params)
    assert (initial, lo, hi) == (100, 10, 100)  # default clamped into range


# --------------------------------------------------------------------------
# LatencyWindow
# --------------------------------------------------------------------------

def test_percentile_nearest_rank():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile([], 0.5) == 0.0
    assert percentile(values, 0.5) == 2.0
    assert percentile(values, 0.99) == 4.0
    with pytest.raises(ValueError):
        percentile(values, 1.5)
    # fraction * n an odd integer: the rank is exactly fraction * n.
    assert percentile([1.0, 2.0], 0.5) == 1.0
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 0.5) == 3.0
    # The exact nearest rank is ceil(p * n) in rational arithmetic.
    for fraction in ("0.5", "0.95", "0.99"):
        for n in range(1, 1001):
            rank = math.ceil(Fraction(fraction) * n)
            assert percentile(list(range(1, n + 1)), float(fraction)) == \
                rank, (fraction, n)


def test_percentile_empty_and_single_element_pins():
    # The quiet-service case: an empty ring yields 0.0 for any valid
    # fraction instead of raising.
    for fraction in (0.0, 0.5, 0.99, 1.0):
        assert percentile([], fraction) == 0.0
    # ...but a bad fraction is a caller bug even when the list is empty.
    with pytest.raises(ValueError):
        percentile([], 1.5)
    with pytest.raises(ValueError):
        percentile([], -0.1)
    # A one-element list answers that element for every fraction.
    for fraction in (0.0, 0.5, 0.99, 1.0):
        assert percentile([7.0], fraction) == 7.0


def test_latency_window_summary_is_all_zero_when_empty():
    summary = LatencyWindow().summary(now=10.0)
    assert summary["count"] == 0
    for key in ("p50_s", "p95_s", "p99_s", "mean_s", "max_s",
                "throughput_qps"):
        assert summary[key] == 0.0, key


def test_latency_window_is_bounded_but_counts_everything():
    window = LatencyWindow(capacity=4)
    for index in range(10):
        window.observe(float(index), at=float(index))
    assert len(window) == 4
    assert window.observed == 10
    summary = window.summary()
    assert summary["count"] == 4 and summary["observed"] == 10
    # Only the newest four (6..9) remain in the ring.
    assert summary["max_s"] == 9.0 and summary["p50_s"] == 7.0


def test_latency_window_throughput_uses_the_recent_horizon():
    window = LatencyWindow(capacity=100)
    for at in (1.0, 2.0, 3.0):
        window.observe(0.1, at=at)
    # All three within the horizon: 3 completions over ~29s of lookback.
    assert window.throughput(now=4.0, horizon_s=30.0) == pytest.approx(1.0)
    # Far in the future nothing is recent.
    assert window.throughput(now=1000.0, horizon_s=30.0) == 0.0
    assert "throughput_qps" in window.summary(now=4.0)


def test_latency_window_rejects_bad_capacity():
    with pytest.raises(ValueError):
        LatencyWindow(capacity=0)


# --------------------------------------------------------------------------
# One service session in virtual time (governed pool)
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def service_session(tmp_path_factory):
    """Open, exercise, drain and close one governed two-tenant service
    on a ``Simulator``: the control plane that serves the wall clock,
    with every time exact.  Collected into a dict so many tests can
    assert against a single session.
    """
    tmp = tmp_path_factory.mktemp("service")
    flight_path = tmp / "flight.json"
    span_path = tmp / "spans.json"
    out = {"flight_path": flight_path, "span_path": span_path}

    service = QueryService(
        seed=11, global_memory_bytes=2 << 20,
        tenants=[TenantSpec("gold", priority=2.0),
                 TenantSpec("capped", priority=0.0, max_active=1)],
        history=2, flight_dump=flight_path, span_dump=span_path,
        kernel=Simulator())
    service.open()

    records = [service.submit(SubmissionRequest(
        tenant="gold", seed=index, **FAST)) for index in range(3)]
    records.append(service.submit(SubmissionRequest(
        tenant="walkin", **FAST)))  # auto-registered tenant

    # The capped tenant admits one submission; the second is refused
    # while the first is still in flight.
    capped = service.submit(SubmissionRequest(tenant="capped", **FAST))
    with pytest.raises(QuotaExceeded):
        service.submit(SubmissionRequest(tenant="capped", seed=1, **FAST))
    records.append(capped)

    service.kernel.run()
    out["mid_snapshot"] = service.snapshot()
    out["records"] = records
    out["record_ids"] = [r.id for r in records]
    out["kept_ids"] = sorted(service.records)

    # Drain with one submission still in flight: it must finish, new
    # work is refused, and close() flushes the recorders.
    straggler = service.submit(SubmissionRequest(
        tenant="gold", seed=99, **FAST))
    service.drain()
    with pytest.raises(ServiceDraining):
        service.submit(SubmissionRequest(tenant="gold", **FAST))
    service.kernel.run()
    service.close()
    out["straggler"] = straggler
    out["final_snapshot"] = service.snapshot()
    out["service"] = service
    return out


def test_submissions_complete_with_outcomes(service_session):
    for record in service_session["records"]:
        assert record.state == "done", record.error
        assert record.outcome["result_tuples"] == 25
        assert record.submitted_at == 0.0
        # Queue, then the run: nothing else on the clock.
        assert record.latency(0.0) == pytest.approx(
            record.admission_wait + record.outcome["response_time"],
            rel=0.0, abs=1e-15)


def test_snapshot_shape_and_counters(service_session):
    snapshot = service_session["mid_snapshot"]
    records = service_session["records"]
    assert snapshot["version"] == SERVICE_SNAPSHOT_VERSION
    assert snapshot["kind"] == "service"
    assert snapshot["submitted"] == 5
    assert snapshot["completed"] == 5
    assert snapshot["failed"] == 0
    assert snapshot["rejected"] == 1  # the quota refusal
    assert snapshot["batches"] == sum(
        record.outcome["batches_processed"] for record in records)
    assert snapshot["pool"]["total"] == 2 << 20
    assert snapshot["latency"]["count"] == 5
    assert snapshot["latency"]["max_s"] == max(
        record.latency(0.0) for record in records)
    json.dumps(snapshot)  # JSON-safe end to end


def test_tenant_accounting_in_snapshot(service_session):
    tenants = {t["name"]: t for t in
               service_session["mid_snapshot"]["tenants"]}
    assert tenants["gold"]["completed"] == 3
    assert tenants["gold"]["priority"] == 2.0
    assert tenants["walkin"]["completed"] == 1  # auto-registered
    assert tenants["capped"]["completed"] == 1
    assert tenants["capped"]["rejected"] == 1


def test_finished_history_is_pruned_to_the_ring(service_session):
    # history=2: only the two newest finished submissions stay queryable.
    assert len(service_session["kept_ids"]) == 2
    assert set(service_session["kept_ids"]) \
        <= set(service_session["record_ids"])


def test_drain_finishes_stragglers_and_refuses_new_work(service_session):
    straggler = service_session["straggler"]
    assert straggler.state == "done", straggler.error
    # Submitted at the instant the first wave's last run ended.
    assert straggler.submitted_at == max(
        record.finished_at for record in service_session["records"])
    final = service_session["final_snapshot"]
    assert final["draining"] is True
    assert final["active"] == 0
    assert final["rejected"] == 2  # quota refusal + drain refusal
    assert service_session["service"]._shutdown.processed


def test_stop_flushes_flight_recorder_and_spans(service_session):
    dump = load_flight_dump(service_session["flight_path"])
    assert dump["reason"] == "drain"
    assert dump["entries"], "machine flight recorder captured nothing"
    assert dump["snapshot"]["kind"] == "service"
    spans = json.loads(service_session["span_path"].read_text())
    assert spans["spans"], "span recorder captured nothing"


def test_submitted_at_uses_the_wall_clock_not_the_dispatch_clock():
    """A submission that arrives while the kernel idles is stamped at its
    arrival: the dispatch clock still shows the last event, 50 ms before."""
    async def scenario():
        service = QueryService(seed=11)
        await service.start()
        try:
            first = service.submit(SubmissionRequest(**FAST))
            await first.done.wait()
            await asyncio.sleep(0.05)
            second = service.submit(SubmissionRequest(seed=1, **FAST))
            await second.done.wait()
            return first, second
        finally:
            await service.stop()

    first, second = asyncio.run(scenario())
    assert second.state == "done", second.error
    assert second.submitted_at - first.finished_at >= 0.045


def test_service_prometheus_text_renders_the_real_snapshot(service_session):
    text = service_prometheus_text(service_session["final_snapshot"])
    samples = {}
    for line in text.splitlines():
        if line.startswith("#") or not line:
            continue
        name, value = line.rsplit(" ", 1)
        samples[name] = float(value)
    assert samples["repro_service_up"] == 1.0
    assert samples["repro_service_draining"] == 1.0
    assert samples["repro_service_completed_total"] == 6.0
    assert samples['repro_service_tenant_completed_total{tenant="gold"}'] \
        == 4.0
    assert 'repro_service_latency_seconds{quantile="0.99"}' in samples
    assert service_prometheus_text(None).startswith(
        "# HELP repro_service_up")


def test_render_service_top_fleet_view(service_session):
    lines = render_top(service_session["final_snapshot"], width=100)
    assert lines == render_service_top(service_session["final_snapshot"],
                                       width=100)
    assert "DRAINING" in lines[0]
    assert any(line.startswith("TENANT") for line in lines)
    assert any(line.startswith("gold") for line in lines)
    assert any(line.startswith("QUERY") for line in lines)
    assert all(len(line) <= 100 for line in lines)


# --------------------------------------------------------------------------
# Construction-time guards
# --------------------------------------------------------------------------

def test_strict_tenants_refuses_walk_ins():
    service = QueryService(tenants=[TenantSpec("known")],
                           strict_tenants=True, kernel=Simulator())
    service.open()
    with pytest.raises(QuotaExceeded):
        service.submit(SubmissionRequest(tenant="nobody", **FAST))
    service.close()
    assert (service.submitted, service.rejected) == (0, 1)


def test_submission_larger_than_the_pool_is_refused_up_front():
    service = QueryService(global_memory_bytes=1 << 20, kernel=Simulator())
    service.open()
    with pytest.raises(ConfigurationError, match="global memory pool"):
        service.submit(SubmissionRequest(tenant="big",
                                         memory_bytes=2 << 20))
    service.close()
    assert (service.submitted, service.rejected) == (0, 1)


def test_submit_before_start_is_an_error():
    from repro.common.errors import SimulationError

    service = QueryService()
    with pytest.raises(SimulationError):
        service.submit(SubmissionRequest(**FAST))


def test_bad_admission_policy_is_rejected():
    with pytest.raises(ConfigurationError):
        QueryService(global_memory_bytes=1 << 20, admission="bogus")


@pytest.mark.parametrize("interval", [math.nan, math.inf, 0.0, -1.0])
def test_a_publish_interval_must_be_positive_and_finite(interval):
    """NaN never wakes the publish loop (``serve --publish-interval nan``
    spun at 100 % CPU and ignored SIGTERM); <= 0 busy-loops it."""
    with pytest.raises(ConfigurationError,
                       match="publish interval must be positive and finite"):
        QueryService(publish_interval_s=interval)


def test_a_drain_before_start_lets_stop_return():
    """The shutdown event is the kernel's from construction on, so a
    drain that comes before the kernel runs still ends its run."""
    async def scenario():
        service = QueryService()
        service.drain()
        await service.start()
        await asyncio.wait_for(service.stop(), timeout=3.0)
        return service

    service = asyncio.run(scenario())
    assert service.draining and service.active == 0
    assert service._shutdown.processed


def test_a_drain_before_open_ends_the_virtual_run():
    service = QueryService(kernel=Simulator())
    service.drain()
    service.open()
    with pytest.raises(ServiceDraining):
        service.submit(SubmissionRequest(**FAST))
    service.kernel.run()
    service.close()
    assert service._shutdown.processed
    assert (service.submitted, service.rejected) == (0, 1)


# --------------------------------------------------------------------------
# The one query lifecycle under the in-process backend
# --------------------------------------------------------------------------

@pytest.mark.parametrize("how", ["mid-stream", "at-open"])
def test_in_process_source_failure_leaks_nothing(how, break_service_source):
    """However a source dies, the submission ends ``failed`` with the
    cause, its lease is back in the pool and the record no longer pins
    its run."""
    break_service_source(how)
    # Mid-stream: F ships 204 of its 3,600 tuples, then raises.
    request = dict(FAST, scale=0.02) if how == "mid-stream" else FAST
    service = QueryService(seed=5, global_memory_bytes=4 << 20,
                           kernel=Simulator())
    service.open()
    record = service.submit(SubmissionRequest(**request))
    service.kernel.run()
    snapshot = service.snapshot()
    service.drain()
    service.close()
    assert record.state == "failed"
    if how == "mid-stream":
        assert "'F'" in record.error and "broke mid-stream" in record.error
    else:
        assert "cannot be opened" in record.error
    assert service.machine.broker.leased_bytes == 0
    assert snapshot["pool"]["active_leases"] == 0
    assert record.run is None
    assert (snapshot["active"], snapshot["failed"]) == (0, 1)


def test_a_failed_submission_stops_its_sources_and_frees_the_machine(
        break_service_source, monkeypatch, virtual_outcome,
        assert_same_outcome):
    """C cannot be opened after A, B, F, E and D started.  Those five
    stop at their next message without holding the machine's one CPU:
    the next submission has the machine to itself, so it reports what
    its own sources give in virtual time."""
    break_service_source("at-open")
    follower = SubmissionRequest(seed=9, **FAST)

    async def scenario():
        service = QueryService(seed=5, global_memory_bytes=4 << 20)
        await service.start()
        try:
            # 58 messages: sources left running would still be shipping.
            failed = service.submit(SubmissionRequest(
                scale=0.02, wait_us=20.0, memory_bytes=2 << 20))
            await asyncio.wait_for(failed.done.wait(), timeout=30.0)
            monkeypatch.undo()
            record = service.submit(follower)
            await asyncio.wait_for(record.done.wait(), timeout=30.0)
            return service, failed, record
        finally:
            await service.stop()

    service, failed, record = asyncio.run(scenario())
    assert failed.state == "failed" and "cannot be opened" in failed.error
    assert_same_outcome(record, virtual_outcome(
        service.seed, service.params, follower, record.sequence))
    assert service.machine.broker.leased_bytes == 0


def test_failed_submissions_leave_nothing_behind(break_service_source):
    """120 submissions in waves of 8 over 4 leases, every third losing F
    mid-stream: each failure stays with its own submission, and neither
    the pool nor the kernel keeps anything of them — no event of theirs
    outlives the last submission's end."""
    import gc

    from repro.core.engine import QueryRun
    from repro.wrappers import Wrapper

    def alive():
        gc.collect()
        return [sum(isinstance(thing, kind) for thing in gc.get_objects())
                for kind in (QueryRun, Wrapper)]

    break_service_source("mid-stream", every=3)
    before = alive()
    service = QueryService(
        seed=3, global_memory_bytes=4 << 20,
        params=SimulationParameters(telemetry_enabled=True,
                                    cpu_mips=10_000.0),
        kernel=Simulator())
    service.open()
    records = []
    for wave in range(0, 120, 8):
        # F ships 204 of its 360 tuples, then (every third) raises.
        records.extend(service.submit(SubmissionRequest(
            seed=seed, scale=0.002, wait_us=20.0, memory_bytes=1 << 20))
            for seed in range(wave, wave + 8))
        service.kernel.run()
    service.drain()
    service.close()
    failed = [record for record in records if record.state == "failed"]
    assert len(failed) == 40
    assert sum(record.state == "done" for record in records) == 80
    for record in failed:
        assert record.sequence % 3 == 0
        assert f"{record.id!r}: source 'F' failed mid-stream" in record.error
        assert "broke mid-stream" in record.error
    assert service.machine.broker.leased_bytes == 0
    assert service.kernel.now == max(record.finished_at for record in records)
    assert service.kernel._failed_processes == []
    del records, failed
    assert alive() == before


# --------------------------------------------------------------------------
# A submission's sources are a delay profile on the plane's own kernel
# --------------------------------------------------------------------------

def test_a_submission_in_flight_adds_no_asyncio_task():
    """Its sources are kernel processes (six feeder tasks each, when
    they were async generators behind ``LiveWrapper``)."""
    async def scenario():
        service = QueryService(seed=5)
        await service.start()
        try:
            idle = len(asyncio.all_tasks())
            record = service.submit(SubmissionRequest(
                scale=0.02, wait_us=20.0, memory_bytes=2 << 20))
            in_flight = []
            while not record.finished:
                await asyncio.sleep(0.005)
                if record.state == "running":
                    in_flight.append(len(asyncio.all_tasks()))
            return idle, in_flight, record
        finally:
            await service.stop()

    idle, in_flight, record = asyncio.run(scenario())
    assert record.state == "done", record.error
    assert in_flight and set(in_flight) == {idle}


def test_the_execution_plane_runs_unchanged_on_a_simulator():
    """Nothing below the control plane needs asyncio: on a ``Simulator``
    the plane's one generator admits, runs and releases eight submissions
    over a two-lease pool the same way every time, the higher priority
    first."""
    from repro.core.engine import main_value, spawn_main
    from repro.service.backend import ExecutionPlane

    params = SimulationParameters(telemetry_enabled=True)
    priorities = {f"s-{index:06d}": float(index % 3) for index in range(1, 9)}

    def session():
        plane = ExecutionPlane(params, 7, 2 << 20, "priority",
                               name="virtual", kernel=Simulator())
        admissions = []
        mains = []
        for sequence, (name, priority) in enumerate(priorities.items(), 1):
            request = SubmissionRequest(seed=sequence, **FAST)
            mains.append(spawn_main(plane.kernel, plane.execute(
                name, request, sequence, request.resolved_budgets(params),
                priority, lambda run, waited: admissions.append(
                    (run.name, waited))), f"query:{name}"))
        plane.kernel.run()
        return (admissions, [main_value(main) for main in mains],
                plane.machine.broker.leased_bytes)

    admissions, outcomes, leased = first = session()
    assert session() == first
    assert leased == 0
    assert [outcome["result_tuples"] for outcome in outcomes] == [25] * 8
    # Two leases fit: the first two arrivals start at once, the other
    # six queue and leave the queue by priority.
    assert [waited for _, waited in admissions[:2]] == [0.0, 0.0]
    queued = [priorities[name] for name, _ in admissions[2:]]
    assert queued == sorted(queued, reverse=True) and len(queued) == 6
    assert all(waited > 0.0 for _, waited in admissions[2:])


def test_a_client_cannot_grow_the_plane_with_distinct_scales():
    """``scale`` is any positive float a client sends: the plane keeps a
    built workload for the few most recently used scales only, and a
    scale still in use keeps its one workload (and the compiled plan
    cached on it)."""
    from repro.service.backend import WORKLOAD_CACHE_SIZE, ExecutionPlane

    plane = ExecutionPlane(SimulationParameters(), 7, None, "none",
                           name="plane", kernel=Simulator())
    hot = plane.workload(0.0005)
    first = plane.workload(0.001)
    for index in range(100):
        plane.workload(0.001 + index * 1e-5)
        assert plane.workload(0.0005) is hot
        assert len(plane._workloads) <= WORKLOAD_CACHE_SIZE
    assert plane.workload(0.001) is not first  # evicted, built again


def test_latency_never_undercuts_the_response_time_on_a_busy_kernel():
    """`submitted_at` and `finished_at` come from one clock.

    A closed loop of clients over a fast modelled machine keeps the
    event heap non-empty, so the dispatch clock falls ever further
    behind the wall clock; stamping one end from each made nearly every
    latency negative here.
    """
    async def scenario():
        service = QueryService(
            seed=3, global_memory_bytes=8 << 20,
            params=SimulationParameters(telemetry_enabled=True,
                                        cpu_mips=10_000.0))
        await service.start()
        finished, first_wave = [], []
        stopping = False

        async def client(index):
            count = 0
            while not stopping:
                record = service.submit(SubmissionRequest(
                    seed=index * 1000 + count, scale=0.0005, wait_us=0.0,
                    memory_bytes=1 << 20))
                if count == 0:
                    first_wave.append(record)
                await record.done.wait()
                finished.append(record)
                count += 1

        try:
            clients = [asyncio.ensure_future(client(index))
                       for index in range(16)]
            await asyncio.sleep(0.5)
            stopping = True
            await asyncio.wait_for(asyncio.gather(*clients), timeout=60.0)
        finally:
            await service.stop()
        return finished, first_wave

    finished, first_wave = asyncio.run(scenario())
    assert len(finished) > 16
    for record in finished:
        assert record.state == "done", record.error
        assert record.latency(0.0) >= 0.0
        assert record.submitted_at <= record.started_at <= record.finished_at
    # The first wave wakes an idle kernel, which re-reads the wall clock
    # before dispatching: it attaches with no lag, so its engine-measured
    # response time bounds its latency from below exactly; later ones
    # only up to the lag at attach.
    for record in first_wave:
        assert record.latency(0.0) >= record.outcome["response_time"] - 1e-9


# --------------------------------------------------------------------------
# A long-lived service holds nothing per submission it has finished with
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def aged_service():
    """300 submissions, 16 in flight at a time, through one governed
    in-process service on a fast modelled machine."""
    async def scenario():
        service = QueryService(
            seed=3, global_memory_bytes=16 << 20,
            params=SimulationParameters(telemetry_enabled=True,
                                        cpu_mips=10_000.0))
        await service.start()
        records = []
        requests = iter(range(300))

        async def client():
            for seed in requests:
                record = service.submit(SubmissionRequest(
                    seed=seed, scale=0.0005, wait_us=0.0,
                    memory_bytes=1 << 20))
                records.append(record)
                await record.done.wait()

        try:
            await asyncio.wait_for(
                asyncio.gather(*(client() for _ in range(16))),
                timeout=120.0)
            return service, records, service.snapshot()
        finally:
            await service.stop()

    return asyncio.run(scenario())


def test_finished_records_keep_their_own_outcome_and_nothing_else(
        aged_service):
    service, records, _ = aged_service
    assert len(records) == 300
    for record in records:
        assert record.state == "done", record.error
        assert record.run is None
        assert record.memory_peak_bytes > 0
        assert set(record.outcome) == {
            "response_time", "result_tuples", "time_to_first_tuple",
            "batches_processed", "stall_time"}
    audit = service.machine.telemetry.audit
    assert audit.appended >= 300 and len(audit.records) <= audit.capacity


def test_stall_attribution_holds_totals_only(aged_service):
    """No per-interval list grows with the submission stream; the
    per-cause totals still re-sum to what the snapshot reports."""
    service, _, snapshot = aged_service
    stalls = service.machine.telemetry.stalls
    containers = {name for name, value in vars(stalls).items()
                  if isinstance(value, (list, dict, set, tuple))
                  or hasattr(value, "maxlen")}
    assert containers == {"breakdown"}
    assert 0 < len(stalls.breakdown) <= 10
    assert sum(stalls.breakdown.values()) \
        == pytest.approx(sum(snapshot["stalls"].values()))
    assert sum(stalls.breakdown.values()) > 0.0


# --------------------------------------------------------------------------
# Durable archive + SLO plane wired into a live session
# --------------------------------------------------------------------------

def test_service_archives_outcomes_and_tracks_slos(tmp_path):
    from repro.observability.archive import ArchiveReader
    from repro.service.slo import parse_slo_specs

    archive_dir = tmp_path / "archive"
    out = {}

    async def scenario():
        service = QueryService(
            seed=7, global_memory_bytes=2 << 20,
            tenants=[TenantSpec("gold", priority=2.0)],
            publish_interval_s=0.05, archive_dir=archive_dir,
            span_dump=tmp_path / "spans.json",  # span records ride along
            slos=parse_slo_specs(["gold:p99<=30s@99.5%",
                                  "*:p99<=30s@99%"]))
        await service.start()
        records = [service.submit(SubmissionRequest(
            tenant="gold", seed=index, **FAST)) for index in range(3)]
        await asyncio.gather(*(r.done.wait() for r in records))
        out["mid_snapshot"] = service.snapshot()
        service.drain()
        await service.stop()
        out["service"] = service

    asyncio.run(scenario())
    snapshot = out["mid_snapshot"]

    # The live snapshot carries the new planes (all JSON-safe).
    assert snapshot["uptime_s"] >= 0.0
    assert snapshot["alerts"] == 0  # nothing breached a 30s threshold
    assert snapshot["archive"]["dropped_total"] == 0
    objectives = {o["objective"]: o for o in snapshot["slo"]}
    assert set(objectives) == {"gold:p99<=30s@99.5%", "*:p99<=30s@99%"}
    for status in objectives.values():
        assert status["events"] == 3
        assert status["bad"] == 0
        assert status["compliance"] == 1.0
        assert status["alerting"] is False
    json.dumps(snapshot)

    # Every completed submission became a durable outcome record, and
    # stop() flushed the queue so nothing is lost.
    reader = ArchiveReader(archive_dir, kinds=("outcome",))
    outcomes = list(reader)
    assert reader.skipped_lines == 0
    assert len(outcomes) == 3
    for record in outcomes:
        assert record["tenant"] == "gold"
        assert record["ok"] is True
        assert record["latency_s"] > 0.0
        assert record["strategy"] == "DSE"
    # Per-query span summaries and scheduler decisions ride along, and
    # the final drain snapshot is archived too.
    spans = list(ArchiveReader(archive_dir, kinds=("span",)))
    assert len(spans) == 3
    decisions = list(ArchiveReader(archive_dir, kinds=("decision",)))
    assert decisions
    snapshots = list(ArchiveReader(archive_dir, kinds=("snapshot",)))
    assert snapshots

    # The Prometheus rendering gains the slo/archive families.
    text = service_prometheus_text(snapshot)
    assert "repro_service_slo_compliance" in text
    assert "repro_service_slo_burn_rate" in text
    assert "repro_service_archive_records_total" in text
    assert "repro_service_archive_dropped_total 0.0" in text
