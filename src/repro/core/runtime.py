"""Execution world and per-query runtime state.

:class:`World` bundles the simulated machine (clock, CPU, disk, cache,
network, communication manager, buffer and memory managers) — one per
simulated execution.  :class:`QueryRuntime` tracks the dynamic state of
one query over that world: the living set of fragments, chain completion,
hash-table residency, degradations and memory splits.

A chain may be served by several fragments over its lifetime:

* plain chain:                ``[PC]``
* degraded (Section 4.4):     ``[MF, CF, PC]`` — the MF materializes while
  the chain is blocked; once it becomes schedulable the MF is stopped,
  the CF replays the temp and the (unsuspended) PC consumes the rest of
  the wrapper data live — this is the paper's *partial* materialization;
* memory split (Section 4.2): ``[..., CONT]`` — the overflowing fragment
  spills the rest of its build input to a temp; the continuation reloads
  it once the fragment's probe tables are released.

The chain is complete when **all** of its fragments are done.  Hash
tables are sealed when their *build* chain completes and dropped when
every fragment probing them is done.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.common.errors import SchedulingError, SimulationError
from repro.common.rng import RandomStreams
from repro.config import SimulationParameters
from repro.core.fragments import (
    Fragment,
    FragmentKind,
    FragmentStatus,
    compiled_chains,
    compiled_degradations,
    materialization_temp,
)
from repro.core.statistics import RuntimeStatistics
from repro.mediator.buffer import BufferManager, HashTable
from repro.mediator.comm import CommunicationManager
from repro.mediator.queues import SourceQueue
from repro.observability import (
    DECISION_CF_CREATE,
    DECISION_DEGRADE,
    DECISION_MEMORY_SPLIT,
    DECISION_MF_STOP,
    DECISION_REOPT_SWAP,
    SPAN_FRAGMENT,
    SPAN_QUERY,
    SpanRecorder,
    Telemetry,
)
from repro.plan.operators import MatOp, ScanOp
from repro.plan.qep import QEP, PipelineChain
from repro.resources.broker import MemoryBroker, MemoryLease
from repro.exec import Kernel
from repro.sim.cache import LRUPageCache
from repro.sim.resources import CPU, Disk, NetworkLink

if TYPE_CHECKING:
    import numpy as np


class World:
    """One simulated mediator machine, as seen by one query.

    The hardware (clock, CPU, disks, cache, link, buffer manager) can be
    **shared** between several queries running on the same mediator —
    pass ``share_machine`` to attach a new query view to an existing
    machine; the communication manager and the memory budget are always
    per-query (each query has its own wrappers, queues, rate listeners
    and memory allotment).
    """

    def __init__(self, params: SimulationParameters, seed: int = 0,
                 share_machine: Optional["World"] = None,
                 memory_bytes: Optional[int] = None,
                 kernel: Optional[Kernel] = None,
                 lease: Optional[MemoryLease] = None,
                 query_name: Optional[str] = None):
        self.params = params
        #: span of the admission wait this query view sat through (set by
        #: :meth:`repro.core.multiquery.GovernedMachine.run_query`); the
        #: query's span tree names it as the cause of running late.
        self.admission_span: Optional[int] = None
        if share_machine is None:
            self.streams = RandomStreams(seed)
            if kernel is None:
                # Default backend: the deterministic virtual-time simulator.
                from repro.sim.engine import Simulator
                kernel = Simulator()
            self.sim: Kernel = kernel
            self.cpu = CPU(self.sim, params.cpu_mips)
            self.disks = [
                Disk(self.sim,
                     latency=params.disk_latency,
                     seek_time=params.disk_seek_time,
                     transfer_rate=params.disk_transfer_rate,
                     page_size=params.page_size,
                     name=f"disk{i}")
                for i in range(params.num_local_disks)
            ]
            self.cache = LRUPageCache(params.io_cache_pages)
            self.link = NetworkLink(self.sim,
                                    bandwidth=params.network_bandwidth_bytes)
            self.buffer = BufferManager(self.sim, self.cpu, self.disks,
                                        self.cache, params)
            self.telemetry = Telemetry(
                self.sim, enabled=params.telemetry_enabled,
                sample_interval=params.telemetry_sample_interval)
            if params.telemetry_spans:
                self.telemetry.spans = SpanRecorder(self.sim)
            # The machine's memory broker.  Default: an *unbounded*
            # private pool — a lease drawn from it with min == max is
            # arithmetically identical to the old per-query manager.
            self.broker = MemoryBroker(sim=self.sim, telemetry=self.telemetry)
        else:
            machine = share_machine
            self.streams = machine.streams
            self.sim = machine.sim
            self.cpu = machine.cpu
            self.disks = machine.disks
            self.cache = machine.cache
            self.link = machine.link
            self.buffer = machine.buffer
            self.telemetry = machine.telemetry
            self.broker = machine.broker
        self.cm = CommunicationManager(
            self.sim, self.cpu, params,
            link=self.link if params.model_link_contention else None,
            telemetry=self.telemetry)
        if lease is not None:
            self.memory = lease
        else:
            budget = (memory_bytes if memory_bytes is not None
                      else params.query_memory_bytes)
            self.memory = self.broker.lease(query_name or "query", budget)
        self.memory.attach_metrics(self.telemetry.registry, prefix=(
            "memory" if query_name is None else f"memory.{query_name}"))

    def rng(self, label: str) -> np.random.Generator:
        """A named deterministic random stream."""
        return self.streams.stream(label)


class QueryRuntime:
    """Dynamic state of one query execution."""

    def __init__(self, world: World, qep: QEP):
        self.world = world
        self.qep = qep
        self.closure = qep.closure  # the plan's, shared: read-only
        self.compiled = compiled_chains(qep, world.params)
        self.compiled_mf, self.compiled_cf = compiled_degradations(
            qep, world.params)
        self.result_tuples = 0
        #: virtual time of the first result tuple (time-to-first-tuple).
        self.first_result_at: Optional[float] = None
        #: bumped whenever a fragment finalizes; :meth:`SchedulingPlan.live`
        #: caches its filtered list against this counter.
        self.done_revision = 0
        self.statistics = RuntimeStatistics()
        for join_name, join in qep.joins.items():
            self.statistics.register_join(join_name,
                                          join.estimated_build_cardinality)
        self.hash_tables: dict[str, HashTable] = {}
        #: shared fractional-tuple accumulators, keyed by
        #: (chain name, operator name); see Fragment._carry.
        self.carry_pool: dict[tuple[str, str], float] = {}
        self.fragments: dict[str, Fragment] = {}
        #: fragments of each chain, in creation order.
        self.chain_fragments: dict[str, list[Fragment]] = {}
        self.completed_chains: set[str] = set()
        self.degraded_chains: set[str] = set()
        #: chains degraded because their build table did not fit the
        #: memory budget (as opposed to the paper's bmi-driven
        #: degradation); their MFs are only stopped once the budget has
        #: grown enough for the table (see :meth:`memory_stop_allowed`).
        self.memory_degraded_chains: set[str] = set()
        self.stopped_materializations: set[str] = set()
        #: degraded chains whose MF has not been followed by a CF yet.
        self._cf_owed: set[str] = set()
        #: the DQS's wait snapshot, for the planning phase in progress.
        self.phase_waits: Optional[dict[str, float]] = None
        # What a planning phase reads, kept where it changes — fragment
        # create, done, degrade (suspend), CF create (unsuspend) and the
        # chain completions a done brings — never re-derived per phase.
        #: C-schedulable fragments (Section 4.1): the DSE's candidates.
        self.schedulable: dict[Fragment, None] = {}
        #: plain chains whose PC waits on an ancestor, in plan order: the
        #: chains the DSE may degrade (Section 4.4).
        self.blocked_chains: dict[str, PipelineChain] = {}
        #: MFs not done yet, by chain, in the order they were created.
        self.materializing: dict[str, Fragment] = {}
        #: chains not complete yet, in plan (iterator) order.
        self.open_chains: list[str] = [chain.name for chain in qep.chains]
        self.memory_splits = 0
        #: root of this query's causal span tree (None when spans off).
        self.query_span: Optional[int] = None
        #: current execution-phase span id (set by the DQO per phase);
        #: the DQP's compiled span hooks read it at call time.
        self.current_phase_span: Optional[int] = None
        #: fragments finalized so far.
        self.fragments_completed = 0
        self._fragment_seconds = world.telemetry.registry.histogram(
            "fragments.duration_seconds")
        spans = world.telemetry.spans
        if spans is not None:
            self.query_span = spans.begin(
                SPAN_QUERY, getattr(world.memory, "name", "query"),
                caused_by=world.admission_span, chains=len(qep.chains))
        for chain in qep.chains:
            self._create_pc_fragment(chain)

    # -- decision audit -------------------------------------------------------
    def _audit(self, kind: str, subject: str,
               decision_inputs: Optional[dict] = None, **details) -> None:
        """Record one scheduler decision with the memory state at its time.

        ``decision_inputs`` carries the numbers the *caller* saw (critical
        degree, bmi vs bmt, ...); ``details`` are kind-specific extras.
        """
        memory = self.world.memory
        self.world.telemetry.audit.record(
            kind, subject, time=self.world.sim.now,
            memory_used_bytes=memory.used_bytes,
            memory_total_bytes=memory.total_bytes,
            details=details, **(decision_inputs or {}))

    # -- fragment creation ---------------------------------------------------
    def _register(self, fragment: Fragment) -> Fragment:
        self.fragments[fragment.name] = fragment
        self._recheck(fragment)
        return fragment

    def _recheck(self, fragment: Fragment) -> None:
        """Admit ``fragment`` to :attr:`schedulable` if it now qualifies."""
        if fragment not in self.schedulable and self.is_c_schedulable(fragment):
            self.schedulable[fragment] = None

    def _create_pc_fragment(self, chain: PipelineChain) -> Fragment:
        queue = self.world.cm.queue(chain.source_relation)
        fragment = Fragment(self, chain.name, FragmentKind.PIPELINE_CHAIN,
                            chain, self.compiled[chain.name], queue)
        self.chain_fragments[chain.name] = [fragment]
        self._register(fragment)
        if fragment not in self.schedulable:
            self.blocked_chains[chain.name] = chain
        return fragment

    def degrade_chain(self, chain: PipelineChain,
                      prefer_memory: Optional[bool] = None,
                      decision_inputs: Optional[dict] = None) -> Fragment:
        """PC degradation (Section 4.4): start a materialization fragment.

        The chain's PC fragment is suspended; the returned MF pulls from
        the wrapper queue, applies the chain's scan and materializes to a
        temp.  When the chain later becomes schedulable the scheduler
        stops the MF (:meth:`request_stop_materialization`), after which
        :meth:`advance_degraded_chains` creates the complement fragment
        and unsuspends the PC.

        ``prefer_memory`` (default: the ``allow_memory_temps`` setting)
        materializes into query memory when the estimate fits.
        """
        pc = self.fragments[chain.name]
        if pc.kind is not FragmentKind.PIPELINE_CHAIN:
            raise SchedulingError(f"{chain.name!r} is not a plain PC fragment")
        if pc.status is not FragmentStatus.PENDING:
            raise SchedulingError(f"cannot degrade running chain {chain.name!r}")
        if chain.name in self.degraded_chains:
            raise SchedulingError(f"chain {chain.name!r} degraded twice")

        if prefer_memory is None:
            prefer_memory = self.world.params.allow_memory_temps
        writer = self.world.buffer.create_temp(
            materialization_temp(chain.name),
            memory=self.world.memory,
            estimated_tuples=self.remaining_source_tuples(chain)
            * chain.scan.scan_selectivity,
            prefer_memory=prefer_memory)
        mf = Fragment(self, f"MF({chain.name})", FragmentKind.MATERIALIZATION,
                      chain, self.compiled_mf[chain.name], pc.source)
        mf.temp_writer = writer
        pc.suspended = True
        self.schedulable.pop(pc, None)
        self.blocked_chains.pop(chain.name, None)
        self.chain_fragments[chain.name] = [mf, pc]
        self.degraded_chains.add(chain.name)
        self._cf_owed.add(chain.name)
        self.materializing[chain.name] = mf
        self._audit(DECISION_DEGRADE, chain.name, decision_inputs,
                    mf=mf.name, temp=writer.temp.name)
        return self._register(mf)

    def request_stop_materialization(self, chain: PipelineChain,
                                     reason: Optional[str] = None) -> None:
        """Ask ``chain``'s MF to finalize early (partial materialization)."""
        mf = self.chain_fragments[chain.name][0]
        if mf.kind is not FragmentKind.MATERIALIZATION:
            raise SchedulingError(f"chain {chain.name!r} has no MF to stop")
        if mf.status is not FragmentStatus.DONE and not mf.stop_requested:
            mf.stop_requested = True
            self.stopped_materializations.add(chain.name)
            details = {"chain": chain.name,
                       "materialized_tuples": mf.tuples_out}
            if reason is not None:
                details["reason"] = reason
            self._audit(DECISION_MF_STOP, mf.name, **details)

    def advance_degraded_chains(self) -> list[Fragment]:
        """Create CFs for finished MFs and unsuspend their PC parts.

        Called by planning policies at the start of each planning phase;
        returns the complement fragments created.
        """
        owed = self._cf_owed
        if not owed:
            return []
        created: list[Fragment] = []
        chain_fragments = self.chain_fragments
        due = [name for name in owed
               if chain_fragments[name][0].status is FragmentStatus.DONE]
        due.sort(key=self.qep.chain_index.__getitem__)  # CFs in plan order
        for name in due:
            owed.discard(name)
            mf = chain_fragments[name][0]
            created.append(self._create_cf_fragment(mf.chain, mf))
            pc = self.fragments[name]
            pc.suspended = False
            self._recheck(pc)
        return created

    def _create_cf_fragment(self, chain: PipelineChain, mf: Fragment) -> Fragment:
        temp = mf.temp_writer.temp
        cf = Fragment(self, f"CF({chain.name})", FragmentKind.COMPLEMENT,
                      chain, self.compiled_cf[chain.name],
                      self.world.buffer.reader(temp))
        self.chain_fragments[chain.name].insert(1, cf)
        self._audit(DECISION_CF_CREATE, cf.name, chain=chain.name,
                    temp=temp.name, temp_tuples=mf.tuples_out)
        return self._register(cf)

    def split_for_memory(self, fragment: Fragment) -> Fragment:
        """DQO memory-overflow handling (Section 4.2 / [4]).

        The overflowing fragment stops growing its hash table: its
        terminal is redirected to a disk temp ("insert a materialize
        operator at the highest possible point"), and a *continuation*
        fragment is created that — once the fragment finishes and its
        probe tables are released — reloads the temp and finishes the
        build.  The spilled batch that triggered the overflow goes
        straight to the temp.
        """
        join_name = fragment.builds_join
        if join_name is None:
            raise SchedulingError(
                f"fragment {fragment.name!r} overflowed without building a table")
        writer = self.world.buffer.create_temp(f"spill:{fragment.name}")
        terminal: MatOp = fragment.terminal  # type: ignore[assignment]
        join = terminal.join
        fragment.replace_terminal(MatOp(
            name="mat[temp]", join=None,
            estimated_input_cardinality=terminal.estimated_input_cardinality,
            estimated_output_cardinality=terminal.estimated_output_cardinality))
        fragment.temp_writer = writer
        if fragment.pending_spill:
            writer.write(fragment.pending_spill)
            fragment.tuples_out += fragment.pending_spill
            fragment.pending_spill = 0

        table = fragment.hash_table
        fragment.hash_table = None
        continuation_scan = ScanOp(
            name=f"scan({writer.temp.name})", relation=writer.temp.name,
            scan_selectivity=1.0,
            estimated_input_cardinality=terminal.estimated_input_cardinality,
            estimated_output_cardinality=terminal.estimated_input_cardinality)
        continuation_mat = MatOp(
            name=f"mat[{join.name}]", join=join,
            estimated_input_cardinality=terminal.estimated_input_cardinality,
            estimated_output_cardinality=terminal.estimated_output_cardinality)
        continuation = Fragment(
            self, f"CONT({fragment.name})", FragmentKind.CONTINUATION,
            fragment.chain, [continuation_scan, continuation_mat],
            self.world.buffer.reader(writer.temp))
        continuation.hash_table = table
        siblings = self.chain_fragments[fragment.chain.name]
        siblings.append(continuation)
        continuation.rank += len(siblings)
        self.memory_splits += 1
        self._audit(DECISION_MEMORY_SPLIT, fragment.name,
                    join=join.name, temp=writer.temp.name,
                    continuation=continuation.name)
        return self._register(continuation)

    # -- QEP-level re-optimization (build/probe swap) ------------------------
    def can_swap_join(self, join_name: str) -> bool:
        """True when ``join_name``'s sides may still be swapped.

        Both chains touching the join must be completely untouched (one
        pristine PC fragment each, not degraded) and the join's table
        must not hold data.
        """
        join = self.qep.joins.get(join_name)
        if join is None:
            return False
        table = self.hash_tables.get(join_name)
        if table is not None and (table.tuples > 0 or table.complete):
            return False
        for chain in (self.qep.chain_feeding(join), self.qep.chain_probing(join)):
            if chain.name in self.degraded_chains:
                return False
            fragments = self.chain_fragments[chain.name]
            if len(fragments) != 1:
                return False
            if fragments[0].status is not FragmentStatus.PENDING:
                return False
        return True

    def swap_pending_join(self, join_name: str,
                          decision_inputs: Optional[dict] = None) -> None:
        """Apply :func:`repro.plan.reopt.swap_join_sides` to the live plan.

        Replaces the two affected chains' fragments with fresh pristine
        ones bound to the same wrapper queues; every other chain (and its
        runtime state) is untouched.
        """
        from repro.plan.reopt import swap_join_sides

        if not self.can_swap_join(join_name):
            raise SchedulingError(f"join {join_name!r} can no longer be swapped")
        # Drop a table that was reserved by admission but never filled.
        table = self.hash_tables.pop(join_name, None)
        if table is not None:
            old_chain = self.qep.chain_feeding(self.qep.joins[join_name])
            self.fragments[old_chain.name].hash_table = None
            table.drop()

        old_join = self.qep.joins[join_name]
        affected = (self.qep.chain_feeding(old_join).name,
                    self.qep.chain_probing(old_join).name)
        self.qep = swap_join_sides(self.qep, join_name,
                                   self.world.params.tuple_size)
        self.closure = self.qep.closure
        self.compiled = compiled_chains(self.qep, self.world.params)
        self.compiled_mf, self.compiled_cf = compiled_degradations(
            self.qep, self.world.params)
        for chain_name in affected:
            old_fragment = self.fragments.pop(chain_name)
            chain = self.qep.chain(chain_name)
            fragment = Fragment(self, chain.name, FragmentKind.PIPELINE_CHAIN,
                                chain, self.compiled[chain_name],
                                old_fragment.source)
            self.fragments[fragment.name] = fragment
            self.chain_fragments[chain_name] = [fragment]
        self._rederive_planning_state()
        self.statistics.update_estimate(
            join_name, self.qep.joins[join_name].estimated_build_cardinality)
        self._audit(DECISION_REOPT_SWAP, join_name, decision_inputs,
                    new_build=list(self.qep.joins[join_name].build_relations))

    def _rederive_planning_state(self) -> None:
        """Rebuild what planning keeps, after a swap replaced the plan:
        its closure and iterator order, and two chains' fragments."""
        self.schedulable = {fragment: None
                            for fragment in self.fragments.values()
                            if self.is_c_schedulable(fragment)}
        self.blocked_chains = {
            chain.name: chain for chain in self.qep.chains
            if chain.name not in self.degraded_chains
            and self.fragments[chain.name].status is FragmentStatus.PENDING
            and self.fragments[chain.name] not in self.schedulable}
        completed = self.completed_chains
        self.open_chains = [chain.name for chain in self.qep.chains
                            if chain.name not in completed]

    # -- hash tables -----------------------------------------------------------
    def table_estimate_bytes(self, join_name: str) -> int:
        """Estimated size of a join's build table (from the plan annotation)."""
        join = self.qep.joins[join_name]
        return int(join.estimated_build_cardinality
                   * self.world.params.tuple_size)

    def ensure_hash_table(self, fragment: Fragment) -> None:
        """Create or attach the table ``fragment`` builds.

        A degraded chain's CF and PC parts build the *same* table; the
        first of them to be admitted creates it (the scheduler must have
        checked the reservation fits), later ones attach.
        """
        join_name = fragment.builds_join
        if join_name is None or fragment.hash_table is not None:
            return
        table = self.hash_tables.get(join_name)
        if table is None:
            params = self.world.params
            table = HashTable(
                join_name, self.world.memory, params.tuple_size,
                params.page_size,
                self.qep.joins[join_name].estimated_build_cardinality)
            self.hash_tables[join_name] = table
        if table.complete:
            raise SimulationError(
                f"fragment {fragment.name!r} attaches to sealed table "
                f"{join_name!r}")
        fragment.hash_table = table

    # -- schedulability ---------------------------------------------------------
    def chain_complete(self, chain_name: str) -> bool:
        return chain_name in self.completed_chains

    def ancestors_done(self, chain_name: str) -> bool:
        """Every chain of ``ancestors*(chain_name)`` has terminated."""
        return self.closure[chain_name] <= self.completed_chains

    def chain_table_fits(self, chain: PipelineChain) -> bool:
        """True when the table ``chain`` builds fits the current budget
        (or already exists, or the chain builds nothing)."""
        join = chain.feeds
        if join is None or join.name in self.hash_tables:
            return True
        return self.world.memory.would_fit(self.table_estimate_bytes(join.name))

    def memory_stop_allowed(self, chain: PipelineChain) -> bool:
        """May ``chain``'s MF be stopped, as far as memory is concerned?

        A chain degraded *for memory* must keep materializing until the
        (grown) budget can hold its build table — stopping earlier would
        just re-block it on the same shortage.  Chains degraded for the
        paper's bmi reasons are unaffected.
        """
        if chain.name not in self.memory_degraded_chains:
            return True
        return self.chain_table_fits(chain)

    def is_c_schedulable(self, fragment: Fragment) -> bool:
        """Dependency constraints of Section 4.1, per fragment kind."""
        if fragment.status is FragmentStatus.DONE or fragment.suspended:
            return False
        if fragment.kind is FragmentKind.MATERIALIZATION:
            return True  # "MF(p) has no ancestor" (Section 4.4)
        chain_name = fragment.chain.name
        if fragment.kind is FragmentKind.CONTINUATION:
            # Runnable once everything before it in the chain is done —
            # that is when the chain's probe tables have been released
            # and the memory it needs to grow its build table is free.
            chain_frags = self.chain_fragments[chain_name]
            index = chain_frags.index(fragment)
            return all(f.status is FragmentStatus.DONE
                       for f in chain_frags[:index])
        if fragment.kind is FragmentKind.COMPLEMENT:
            mf = self.chain_fragments[chain_name][0]
            if mf.status is not FragmentStatus.DONE:
                return False
        return self.ancestors_done(chain_name)

    def new_memory_needed(self, fragment: Fragment) -> int:
        """Bytes the fragment must newly reserve before running.

        Tables it probes are already resident (their build chains are
        complete); only a table it builds *that does not exist yet* is
        new — attaching to an existing table (degraded chains) or
        carrying a partial one (continuations) costs nothing up front.
        """
        join_name = fragment.builds_join
        if join_name is None or fragment.hash_table is not None:
            return 0
        if join_name in self.hash_tables:
            return 0
        return self.table_estimate_bytes(join_name)

    # -- lifecycle callbacks ------------------------------------------------------
    def on_fragment_done(self, fragment: Fragment) -> None:
        """Bookkeeping when a fragment finalizes."""
        self.done_revision += 1
        self.schedulable.pop(fragment, None)
        if fragment.kind is FragmentKind.MATERIALIZATION:
            self.materializing.pop(fragment.chain.name, None)
        self.fragments_completed += 1
        if fragment.started_at is not None:
            self._fragment_seconds.observe(
                fragment.finished_at - fragment.started_at)
        spans = self.world.telemetry.spans
        if spans is not None:
            # Recorded retrospectively: one span per fragment lifetime,
            # from its first batch to this finalize.
            started = (fragment.started_at if fragment.started_at is not None
                       else self.world.sim.now)
            spans.add(SPAN_FRAGMENT, fragment.name, started,
                      self.world.sim.now, parent_id=self.query_span,
                      fragment_kind=fragment.kind.value,
                      chain=fragment.chain.name,
                      tuples_in=fragment.tuples_in,
                      tuples_out=fragment.tuples_out)
        self._maybe_drop_tables(fragment)
        # A fully consumed temp is dead: free its memory/cache.
        source = fragment.source
        if not isinstance(source, SourceQueue) and source.exhausted:
            self.world.buffer.destroy_temp(source.temp)
        chain_name = fragment.chain.name
        fragments = self.chain_fragments[chain_name]
        if all(f.status is FragmentStatus.DONE for f in fragments):
            self._complete_chain(chain_name)
            return
        for sibling in fragments:  # a continuation waits on those before it
            if sibling.kind is FragmentKind.CONTINUATION:
                self._recheck(sibling)

    def _maybe_drop_tables(self, fragment: Fragment) -> None:
        """Drop each probed table once no live fragment still probes it."""
        probing_chain = self.qep.probing_chain
        for join_name in fragment.probed_joins:
            still_probing = any(
                f.status is not FragmentStatus.DONE
                and join_name in f.probed_joins
                for f in self.chain_fragments[probing_chain[join_name]])
            if still_probing:
                continue
            table = self.hash_tables.pop(join_name, None)
            if table is None:
                raise SimulationError(
                    f"fragment {fragment.name!r} probed {join_name!r} "
                    "but no table is resident")
            table.drop()

    def _complete_chain(self, chain_name: str) -> None:
        self.completed_chains.add(chain_name)
        self.open_chains.remove(chain_name)
        for dependent in self.qep.dependents[chain_name]:
            if self.ancestors_done(dependent):  # its PC and CF may run now
                self.blocked_chains.pop(dependent, None)
                for fragment in self.chain_fragments[dependent]:
                    self._recheck(fragment)
        chain = self.qep.chain(chain_name)
        if chain.feeds is not None:
            table = self.hash_tables.get(chain.feeds.name)
            if table is None:
                raise SimulationError(
                    f"chain {chain_name!r} completed but its build table "
                    f"{chain.feeds.name!r} does not exist")
            table.seal()
            # The blocking edge is done: its exact cardinality is now a
            # runtime fact for the DQO (Section 3.1).
            self.statistics.observe_build(chain.feeds.name, table.tuples,
                                          self.world.sim.now)

    @property
    def all_done(self) -> bool:
        """The query is complete when the root chain has completed."""
        return self.qep.root.name in self.completed_chains

    def live_fragments(self) -> list[Fragment]:
        """Fragments not yet done, in stable creation order."""
        return [f for f in self.fragments.values()
                if f.status is not FragmentStatus.DONE]

    def next_in_iterator_order(self) -> Optional[Fragment]:
        """The first unfinished fragment of the first incomplete chain in
        plan (iterator) order: what SEQ runs next, and MA once nothing
        materializes."""
        chain_fragments = self.chain_fragments
        for name in self.open_chains:
            for fragment in chain_fragments[name]:
                if fragment.status is not FragmentStatus.DONE:
                    return fragment
        return None

    def remaining_source_tuples(self, chain: PipelineChain) -> float:
        """Source tuples of ``chain`` not yet delivered to the mediator."""
        estimator = self.world.cm.estimators.get(chain.source_relation)
        if estimator is None:
            return chain.scan.estimated_input_cardinality
        return max(0.0, chain.scan.estimated_input_cardinality
                   - estimator.tuples_delivered)
