"""Unit tests for the resource-governance plane (repro.resources)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.common.errors import ConfigurationError, SimulationError
from repro.observability import Telemetry
from repro.resources import AdmissionController, MemoryBroker, MemoryLease
from repro.sim import Simulator


# -- the leaf layer: static-budget semantics --------------------------------

class TestLeaseLeafAccounting:
    def test_reserve_release_peak(self):
        lease = MemoryLease(1000)
        lease.reserve("a", 400)
        lease.reserve("b", 300)
        assert lease.used_bytes == 700
        assert lease.available_bytes == 300
        assert lease.peak_bytes == 700
        assert lease._allocations.get("a", 0) == 400
        assert lease.release("a") == 400
        assert lease.used_bytes == 300
        assert lease.peak_bytes == 700  # high-water mark survives

    def test_try_grow(self):
        lease = MemoryLease(1000)
        lease.reserve("t", 600)
        assert lease.try_grow("t", 400)
        assert not lease.try_grow("t", 1)
        assert lease._allocations.get("t", 0) == 1000

    def test_would_fit_static(self):
        lease = MemoryLease(1000)
        assert lease.would_fit(1000)
        assert not lease.would_fit(1001)

    def test_error_messages_preserved(self):
        lease = MemoryLease(100)
        with pytest.raises(SimulationError, match="negative reservation"):
            lease.reserve("x", -1)
        lease.reserve("x", 10)
        with pytest.raises(SimulationError, match="already holds"):
            lease.reserve("x", 10)
        with pytest.raises(SimulationError, match="exceeds available"):
            lease.reserve("y", 1000)
        with pytest.raises(SimulationError, match="negative growth"):
            lease.try_grow("x", -1)
        with pytest.raises(SimulationError, match="holds no reservation"):
            lease.try_grow("ghost", 1)
        with pytest.raises(SimulationError, match="holds no reservation"):
            lease.release("ghost")

    def test_non_positive_budget_rejected(self):
        with pytest.raises(SimulationError, match="must be positive"):
            MemoryLease(0)

    def test_bounds_validated(self):
        with pytest.raises(SimulationError, match="bounds violated"):
            MemoryLease(100, min_bytes=200)
        with pytest.raises(SimulationError, match="bounds violated"):
            MemoryLease(100, max_bytes=50)


# -- broker: pool arithmetic and demand pulls --------------------------------

class TestBroker:
    def test_unbounded_broker_preserves_legacy(self):
        broker = MemoryBroker()
        lease = broker.lease("q", 1000)
        assert not broker.governed
        assert broker.spare_bytes() is None
        # min == max == budget: headroom is zero, arithmetic identical
        # to a standalone private lease.
        assert not lease.would_fit(1001)

    def test_governed_pool_bounds_leases(self):
        broker = MemoryBroker(1000)
        broker.lease("a", 600)
        with pytest.raises(SimulationError, match="exceeds spare pool"):
            broker.lease("b", 500)
        broker.lease("b", 400)
        assert broker.spare_bytes() == 0

    def test_non_positive_pool_rejected(self):
        with pytest.raises(SimulationError, match="must be positive"):
            MemoryBroker(0)

    def test_demand_pull_grows_lease(self):
        broker = MemoryBroker(1000)
        lease = broker.lease("q", 400, min_bytes=400, max_bytes=900)
        # would_fit sees the headroom a pull could claim: 400 budget
        # + min(900 - 400, 600 spare) = 900.
        assert lease.would_fit(900)
        assert not lease.would_fit(901)
        lease.reserve("t", 700)  # pulls 300 from the pool silently
        assert lease.total_bytes == 700
        assert broker.spare_bytes() == 300

    def test_pull_capped_by_max_bytes(self):
        broker = MemoryBroker(10_000)
        lease = broker.lease("q", 400, max_bytes=500)
        assert lease.would_fit(500)
        assert not lease.would_fit(501)
        lease.reserve("t", 500)
        assert lease.total_bytes == 500

    def test_release_offers_bytes_to_subscribed_lease(self):
        sim = Simulator()
        telemetry = Telemetry(sim=sim, enabled=True)
        broker = MemoryBroker(1000, sim=sim, telemetry=telemetry)
        stay = broker.lease("stay", 400, min_bytes=400, max_bytes=1000)
        done = broker.lease("done", 600)
        grows = []
        stay.subscribe_grow(lambda granted, total: grows.append(
            (granted, total)))
        broker.release(done)
        assert grows == [(600, 1000)]
        assert stay.grow_revision == 1
        assert [r.kind for r in telemetry.audit] == ["lease-grow"]

    def test_no_offer_without_subscription(self):
        broker = MemoryBroker(1000)
        stay = broker.lease("stay", 400, min_bytes=400, max_bytes=1000)
        broker.release(broker.lease("done", 600))
        assert stay.total_bytes == 400  # static query keeps its budget

    def test_reclaim_shrinks_only_under_demand(self):
        broker = MemoryBroker(1000)
        fat = broker.lease("fat", 800, min_bytes=200, max_bytes=800)
        fat.reserve("t", 300)
        fat.release("t")
        # Nobody is waiting: the query keeps its full budget.
        assert fat.total_bytes == 800

        hungry = broker.lease("hungry", 200, min_bytes=200, max_bytes=600)
        hungry.subscribe_grow(lambda *a: None)
        fat.reserve("t", 300)
        fat.release("t")
        # Demand exists: fat shrinks to max(used, min) and the freed
        # bytes are offered to the growable lease.
        assert fat.total_bytes == 200
        assert hungry.total_bytes == 600

    def test_released_lease_cannot_pull(self):
        broker = MemoryBroker(1000)
        lease = broker.lease("q", 400, max_bytes=900)
        broker.release(lease)
        assert not broker.expand_lease(lease, 100)
        assert not lease.would_fit(500)

    def test_lease_gauges(self):
        sim = Simulator()
        telemetry = Telemetry(sim=sim, enabled=True)
        broker = MemoryBroker(1000, sim=sim, telemetry=telemetry)
        lease = broker.lease("q", 600)
        lease.attach_metrics(telemetry.registry, prefix="memory.q")
        lease.reserve("t", 250)
        registry = telemetry.registry
        assert registry.gauge("memory.q.used_bytes").value == 250
        assert registry.gauge("memory.q.peak_bytes").value == 250
        assert registry.gauge("memory.q.available_bytes").value == 350
        assert registry.gauge("broker.mediator.pool_bytes").value == 1000
        assert registry.gauge("broker.mediator.leased_bytes").value == 600
        assert registry.gauge("broker.mediator.spare_bytes").value == 400
        assert registry.gauge("broker.mediator.active_leases").value == 1


class BrokerMachine(RuleBasedStateMachine):
    """Random carve / pull / grow / reclaim / release traffic against a
    governed pool: the running ``leased_bytes`` always equals the re-sum
    over the live leases and never exceeds the pool."""

    POOL = 4000

    def __init__(self):
        super().__init__()
        self.broker = MemoryBroker(self.POOL)
        self.serial = 0

    def _pick(self, index):
        leases = self.broker.leases
        return leases[index % len(leases)] if leases else None

    @rule(size=st.integers(1, 1500), floor=st.integers(1, 1500),
          room=st.integers(0, 1500), subscribe=st.booleans())
    def carve(self, size, floor, room, subscribe):
        if size > self.broker.spare_bytes():
            return
        self.serial += 1
        lease = self.broker.lease(f"q{self.serial}", size,
                                  min_bytes=min(floor, size),
                                  max_bytes=size + room)
        if subscribe:  # growable: release/reclaim will offer it bytes
            lease.subscribe_grow(lambda granted, total: None)

    @rule(index=st.integers(0, 50), size=st.integers(1, 2500))
    def reserve(self, index, size):
        lease = self._pick(index)
        if lease is None or lease._allocations.get("t", 0) or not lease.would_fit(size):
            return
        lease.reserve("t", size)  # may demand-pull from the pool

    @rule(index=st.integers(0, 50), delta=st.integers(0, 1500))
    def grow(self, index, delta):
        lease = self._pick(index)
        if lease is not None and lease._allocations.get("t", 0):
            lease.try_grow("t", delta)

    @rule(index=st.integers(0, 50))
    def free(self, index):
        lease = self._pick(index)
        if lease is not None and lease._allocations.get("t", 0):
            lease.release("t")  # reclaim + redistribution under demand

    @rule(index=st.integers(0, 50))
    def finish(self, index):
        lease = self._pick(index)
        if lease is not None:
            self.broker.release(lease)
            self.broker.release(lease)  # idempotent

    @invariant()
    def running_total_is_the_re_sum(self):
        broker = self.broker
        assert broker.leased_bytes == sum(
            lease.total_bytes for lease in broker.leases)
        assert 0 <= broker.leased_bytes <= self.POOL
        assert broker.spare_bytes() == self.POOL - broker.leased_bytes


TestBrokerMachine = BrokerMachine.TestCase
TestBrokerMachine.settings = settings(max_examples=40,
                                      stateful_step_count=40, deadline=None)


# -- admission control -------------------------------------------------------

def _controller(pool=1000, policy="fifo", enabled=False):
    sim = Simulator()
    telemetry = Telemetry(sim=sim, enabled=enabled)
    broker = MemoryBroker(pool, sim=sim, telemetry=telemetry)
    return AdmissionController(broker, sim, telemetry=telemetry,
                               policy=policy), broker, telemetry


class TestAdmission:
    def test_immediate_grant_formula(self):
        controller, broker, _ = _controller(pool=1000)
        ticket = controller.request("q", min_bytes=200, max_bytes=700)
        # spare 1000: granted = min(700, max(200, 1000)) = 700
        assert ticket.granted
        assert ticket.lease.total_bytes == 700
        assert ticket.waited == 0.0

    def test_tight_grant_starts_at_spare(self):
        controller, broker, _ = _controller(pool=1000)
        broker.lease("other", 700)
        ticket = controller.request("q", min_bytes=200, max_bytes=900)
        # spare 300: granted = min(900, max(200, 300)) = 300
        assert ticket.granted
        assert ticket.lease.total_bytes == 300

    def test_queue_and_fifo_drain(self):
        controller, broker, telemetry = _controller(pool=1000)
        first = broker.lease("running", 900)
        a = controller.request("a", min_bytes=300, max_bytes=500)
        b = controller.request("b", min_bytes=200, max_bytes=300)
        assert not a.granted and not b.granted
        assert controller.queue_depth == 2
        broker.release(first)
        # Strict head-of-line: a admitted first even though b is smaller.
        assert a.granted and b.granted
        assert a.admitted_at is not None
        kinds = [r.kind for r in telemetry.audit]
        assert kinds == ["admission-queue", "admission-queue",
                         "admit", "admit"]
        assert [r.subject for r in telemetry.audit if r.kind == "admit"] \
            == ["a", "b"]

    def test_head_of_line_blocks_smaller_followers(self):
        controller, broker, _ = _controller(pool=1000)
        broker.lease("running", 600)
        big = controller.request("big", min_bytes=500, max_bytes=500)
        small = controller.request("small", min_bytes=100, max_bytes=100)
        # 400 spare fits small but not the head: nobody is admitted.
        assert not big.granted and not small.granted

    def test_priority_policy(self):
        controller, broker, _ = _controller(pool=1000, policy="priority")
        first = broker.lease("running", 900)
        low = controller.request("low", 300, 300, priority=1.0)
        high = controller.request("high", 300, 300, priority=5.0)
        broker.release(first)
        assert high.admitted_at is not None and low.admitted_at is not None
        assert high.lease is not None and low.lease is not None
        # Both fit after the release, but high was drained first.
        assert broker.leases.index(high.lease) \
            < broker.leases.index(low.lease)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.just("request"), st.sampled_from([-1.5, 0.0, 1.0, 2.0]),
                  st.integers(1, 4)),
        st.tuples(st.just("release"), st.integers(0, 7), st.just(0))),
        max_size=40))
    def test_priority_queue_is_always_the_sorted_queue(self, steps):
        """Each request is inserted into the priority queue in place;
        whatever the interleaving of requests and releases, the queue is
        what sorting every waiting ticket by (-priority, seq) gives."""
        controller, broker, _ = _controller(pool=1000, policy="priority")
        tickets = []
        for op, value, size in steps:
            if op == "request":
                tickets.append(controller.request(
                    f"q{len(tickets)}", size * 100, size * 100,
                    priority=value))
            else:
                held = [t for t in tickets
                        if t.granted and not t.lease.released]
                if held:
                    broker.release(held[value % len(held)].lease)
            waiting = [t for t in tickets if not t.granted]
            assert controller.queue == sorted(
                waiting, key=lambda t: (-t.priority, t.seq))

    def test_invalid_bounds_rejected(self):
        controller, _, _ = _controller()
        with pytest.raises(ConfigurationError, match="need 0 < min <= max"):
            controller.request("q", min_bytes=0, max_bytes=100)
        with pytest.raises(ConfigurationError, match="need 0 < min <= max"):
            controller.request("q", min_bytes=200, max_bytes=100)

    def test_never_admittable_rejected(self):
        controller, _, _ = _controller(pool=1000)
        with pytest.raises(ConfigurationError, match="could never be admitted"):
            controller.request("q", min_bytes=2000, max_bytes=3000)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown admission"):
            _controller(policy="lifo")

    def test_audit_log_reports_queue_and_admit(self):
        """Admission reports through the audit log, which both governed
        front-ends (multi-query and the service) return; it writes no
        registry metric, even into an enabled registry."""
        controller, broker, telemetry = _controller(pool=1000, enabled=True)
        sim = controller.sim
        first = broker.lease("running", 900)
        ticket = controller.request("q", min_bytes=300, max_bytes=500,
                                    tenant="gold")

        def release_later():
            yield sim.timeout(2.0)
            broker.release(first)

        sim.process(release_later(), name="release")
        sim.run()
        queued, admit = telemetry.audit
        assert (queued.time, queued.kind, queued.subject) \
            == (0.0, "admission-queue", "q")
        assert queued.details == {"min_bytes": 300, "max_bytes": 500,
                                  "queue_depth": 1, "tenant": "gold"}
        assert (admit.time, admit.kind, admit.subject) == (2.0, "admit", "q")
        assert admit.details == {"min_bytes": 300, "max_bytes": 500,
                                 "granted_bytes": 500, "waited": 2.0,
                                 "tenant": "gold"}
        assert ticket.waited == 2.0 and controller.queue_depth == 0
        assert not any(name.startswith("admission.")
                       for name in telemetry.registry.as_dict())


# -- the admitted bracket ----------------------------------------------------

def _run_query(governed, name, workload, delays, seen):
    """``governed.run_query`` for one SEQ run of ``workload`` under a
    300 KiB lease; ``seen[name]`` gets ``(run, waited)`` at start."""
    from repro.core.engine import seeded_wrappers
    from repro.core.strategies import make_policy

    def started(run, waited):
        seen[name] = (run, waited)

    budget = 300 << 10
    return governed.run_query(
        name, workload.qep, make_policy("SEQ"),
        lambda world: seeded_wrappers(world, workload.catalog, delays,
                                      f"{name}:"),
        (budget, budget, budget), started)


class TestGovernedMachine:
    """`GovernedMachine.run_query` on the Simulator: the one lease
    bracket of every front end that runs queries on a shared machine."""

    def test_queued_query_gets_span_cause_and_one_stall(self, tiny_fig5):
        from repro.config import SimulationParameters
        from repro.core.engine import main_value, spawn_main
        from repro.core.multiquery import GovernedMachine
        from repro.observability import (
            SPAN_ADMISSION_WAIT,
            STALL_ADMISSION_WAIT,
        )
        from repro.wrappers import ConstantDelay

        governed = GovernedMachine(
            SimulationParameters(telemetry_spans=True), 1, 400 << 10, "fifo")
        machine, sim = governed.machine, governed.kernel
        spans = machine.telemetry.spans
        delays = {name: ConstantDelay(1e-5)
                  for name in tiny_fig5.relation_names}
        seen = {}
        mains = [spawn_main(sim, _run_query(governed, name, tiny_fig5,
                                            delays, seen), f"query:{name}")
                 for name in ("holder", "late")]
        sim.run()

        (_, holder_end), _ = (main_value(main) for main in mains)
        holder, holder_waited = seen["holder"]
        assert holder_waited == 0.0 and holder.world.admission_span is None
        run, waited = seen["late"]
        # 300 KiB each in a 400 KiB pool: "late" starts when "holder"
        # gives its lease back.
        assert waited == holder_end.time > 0
        waits = [span for span in spans.spans if span.kind == SPAN_ADMISSION_WAIT]
        assert [(s.name, s.start, s.end) for s in waits] \
            == [("late", 0.0, waited)]
        assert run.world.admission_span == waits[0].span_id
        assert spans.spans[run.runtime.query_span].caused_by \
            == waits[0].span_id
        # Attributed once: the machine's admission-wait stall total is
        # exactly the one queueing interval.
        assert machine.telemetry.stalls.by_cause()[STALL_ADMISSION_WAIT] \
            == waited
        assert run.world.memory.released and not machine.broker.leases

    def test_lease_returns_when_the_run_fails(self, tiny_fig5, params,
                                              breaking_delays):
        from repro.core.engine import spawn_main
        from repro.core.multiquery import GovernedMachine

        for pool in (400 << 10, None):
            governed = GovernedMachine(params, 1, pool, "fifo")
            broker = governed.machine.broker
            # Ungoverned, the broker is the machine's default one, where
            # the machine world holds its own lease.
            before = broker.leased_bytes
            seen = {}
            main = spawn_main(governed.kernel, _run_query(
                governed, "q", tiny_fig5, breaking_delays(tiny_fig5, params),
                seen), "query:q")
            governed.kernel.run()

            assert isinstance(main.failure, SimulationError)
            assert "source 'A' failed mid-stream" in str(main.failure)
            run, _ = seen["q"]
            assert run.world.memory.released
            assert broker.leased_bytes == before
