"""Stateful (model-based) tests of the simulation kernel.

A hypothesis state machine drives random sequences of operations against
the kernel's resources and stores, checking the invariants a correct
discrete-event kernel must uphold: clock monotonicity, FIFO grant order,
capacity bounds, and conservation of items.
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.sim import Resource, Simulator, Store


class ResourceMachine(RuleBasedStateMachine):
    """Random request/release traffic against a capacity-2 resource."""

    @initialize()
    def setup(self):
        self.sim = Simulator()
        self.resource = Resource(self.sim, capacity=2)
        self.granted = []      # events granted (FIFO order observed)
        self.pending = []      # events still waiting, oldest first
        self.held = 0
        self.last_now = 0.0

    @rule()
    def request(self):
        event = self.resource.request()
        if event.triggered:
            self.held += 1
            self.granted.append(event)
        else:
            self.pending.append(event)

    @rule()
    def release(self):
        if self.held == 0:
            return
        self.resource.release()
        if self.pending:
            # The slot transfers to the oldest waiter.
            waiter = self.pending.pop(0)
            self.sim.run()
            assert waiter.triggered
            self.granted.append(waiter)
        else:
            self.held -= 1

    @rule(delay=st.floats(min_value=0.0, max_value=10.0))
    def advance_time(self, delay):
        self.sim.timeout(delay)
        self.sim.run()

    @invariant()
    def clock_never_goes_backwards(self):
        if not hasattr(self, "sim"):
            return
        assert self.sim.now >= self.last_now
        self.last_now = self.sim.now

    @invariant()
    def capacity_respected(self):
        if not hasattr(self, "resource"):
            return
        assert 0 <= self.resource._in_use <= self.resource.capacity

    @invariant()
    def no_waiter_granted_out_of_order(self):
        if not hasattr(self, "resource"):
            return
        # Everything in `pending` must still be un-triggered.
        assert all(not event.triggered for event in self.pending)


class StoreMachine(RuleBasedStateMachine):
    """Random put/get traffic against a bounded store."""

    @initialize(capacity=st.integers(min_value=1, max_value=5))
    def setup(self, capacity):
        self.sim = Simulator()
        self.store = Store(self.sim, capacity=capacity)
        self.put_serial = 0
        self.accepted = []     # items known to be inside (FIFO model)
        self.blocked_puts = [] # (event, item) waiting for space
        self.waiting_gets = [] # get events waiting for items
        self.taken = []

    @rule()
    def put(self):
        item = self.put_serial
        self.put_serial += 1
        event = self.store.put(item)
        if event.triggered:
            if self.waiting_gets:
                get_event = self.waiting_gets.pop(0)
                self.sim.run()
                assert get_event.value == item
                self.taken.append(item)
            else:
                self.accepted.append(item)
        else:
            self.blocked_puts.append((event, item))

    @rule()
    def get(self):
        event = self.store.get()
        if event.triggered:
            expected = self.accepted.pop(0)
            assert event.value == expected
            self.taken.append(event.value)
            if self.blocked_puts:
                put_event, item = self.blocked_puts.pop(0)
                self.sim.run()
                assert put_event.triggered
                self.accepted.append(item)
        else:
            self.waiting_gets.append(event)

    @invariant()
    def level_within_capacity(self):
        if not hasattr(self, "store"):
            return
        assert 0 <= len(self.store) <= self.store.capacity

    @invariant()
    def fifo_order_preserved(self):
        if not hasattr(self, "store"):
            return
        assert self.taken == sorted(self.taken)

    @invariant()
    def model_matches_store(self):
        if not hasattr(self, "store"):
            return
        assert list(self.store.items) == self.accepted


TestResourceMachine = ResourceMachine.TestCase
TestResourceMachine.settings = settings(max_examples=30,
                                        stateful_step_count=40,
                                        deadline=None)

TestStoreMachine = StoreMachine.TestCase
TestStoreMachine.settings = settings(max_examples=30,
                                     stateful_step_count=40,
                                     deadline=None)
