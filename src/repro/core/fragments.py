"""Runtime query fragments (QFs).

A query fragment is the unit the scheduling plan orders and the DQP
executes: a pipeline-chain segment bound to an input (a wrapper queue or
a temp relation) and a terminal sink (a hash-table build, a temp
materialization, or the query output).  Section 3.3: "the query fragments
of an SP can be PC's or partial materializations of wrappers results";
two more kinds exist at runtime: the complement fragment of a degraded PC
and the continuation fragment the DQO creates when handling memory
overflow.

Tuple flow is content-free: each batch of ``n`` input tuples expands
through the segment's operators using the joins' *actual* fanouts, with
fractional carries so that totals converge to the true cardinalities, and
the whole batch's instruction count is charged to the mediator CPU in one
piece.  Everything a batch or a planning phase needs from the operator
list is fixed when the fragment is built, so the list is *compiled*
once (:class:`CompiledSegment`; a chain's own list once per plan,
:func:`compiled_chains`) and a batch is a loop over floats;
``tests/test_fragments_runtime.py`` keeps the per-batch interpreter it
replaced as the oracle.
"""

from __future__ import annotations

import enum
import weakref
from typing import Any, Generator, Literal, Optional, TYPE_CHECKING, Union

from repro.common.errors import SchedulingError, SimulationError
from repro.config import SimulationParameters
from repro.core.metrics import chain_cpu_seconds_per_source_tuple
from repro.mediator.buffer import HashTable, TempReader, TempWriter
from repro.mediator.queues import SourceQueue
from repro.plan.operators import MatOp, Operator, OutputOp, ProbeOp, ScanOp
from repro.exec import SimEvent
from repro.plan.qep import QEP, PipelineChain

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.runtime import QueryRuntime


class FragmentKind(enum.Enum):
    """What role a fragment plays (Section 3.3 + DQO splitting)."""

    PIPELINE_CHAIN = "pc"       #: a whole PC executed in pipeline
    MATERIALIZATION = "mf"      #: MF(p): wrapper -> temp (PC degradation)
    COMPLEMENT = "cf"           #: CF(p): temp -> rest of the degraded PC
    CONTINUATION = "cont"       #: DQO memory split: temp -> hash build


class FragmentStatus(enum.Enum):
    PENDING = "pending"   #: exists but not yet admitted to any SP
    RUNNING = "running"   #: has processed at least one batch
    DONE = "done"         #: input consumed and terminal finalized


#: Batch outcome markers returned by :meth:`Fragment.process_batch`.
BATCH_OK = "ok"
BATCH_EMPTY = "empty"
BATCH_FINISHED = "finished"
BATCH_OVERFLOW = "overflow"

#: a fragment's place among its chain's fragments, by kind: a chain's
#: list is always ``[MF, CF, PC, CONT...]`` minus what it has not got.
#: Continuations are appended, so the runtime adds their position.
KIND_RANK = {FragmentKind.MATERIALIZATION: 0, FragmentKind.COMPLEMENT: 1,
             FragmentKind.PIPELINE_CHAIN: 2, FragmentKind.CONTINUATION: 3}

FragmentInput = Union[SourceQueue, TempReader]

#: one compiled scan or probe: instructions per input tuple, the carry
#: pool key of its fractional output, output tuples per input tuple,
#: instructions per output tuple.
FlowStep = tuple[float, tuple[str, str], float, float]
#: where a fragment's terminal delivers: a hash-table build, a temp
#: materialization, or the query output.
SinkKind = Literal["table", "temp", "output"]


class CompiledSegment:
    """An operator list resolved into per-batch and per-phase constants.

    Table 1's costs and the joins' fanouts do not change while a query
    runs, so the operator walk happens here, once.  Holds no run state.
    """

    __slots__ = ("operators", "steps", "terminal_instructions", "sink_kind",
                 "builds_join", "probed_joins", "cpu_per_tuple",
                 "local_cpu_per_tuple")

    def __init__(self, owner: str, chain: str, operators: list[Operator],
                 params: SimulationParameters):
        steps: list[FlowStep] = []
        for op in operators[:-1]:
            if isinstance(op, ScanOp):
                steps.append((params.move_tuple_instructions,
                              (chain, op.name), op.scan_selectivity, 0.0))
            elif isinstance(op, ProbeOp):
                steps.append((params.hash_search_instructions,
                              (chain, op.name), op.join.actual_fanout(),
                              params.produce_tuple_instructions))
            else:
                raise SchedulingError(f"unknown operator {op!r} in {owner!r}")
        terminal = operators[-1]
        #: name of the join whose hash table the segment builds, if any.
        self.builds_join: Optional[str] = None
        self.sink_kind: SinkKind = "output"
        self.terminal_instructions = 0.0
        if isinstance(terminal, MatOp):
            self.terminal_instructions = params.move_tuple_instructions
            self.sink_kind = "temp"
            if terminal.join is not None:
                self.sink_kind = "table"
                self.builds_join = terminal.join.name
        elif not isinstance(terminal, OutputOp):
            raise SchedulingError(
                f"fragment {owner!r} has unsupported terminal {terminal!r}")
        self.operators = tuple(operators)
        self.steps = tuple(steps)
        self.probed_joins = tuple(op.join.name for op in operators
                                  if isinstance(op, ProbeOp))
        #: ``c_p`` (Section 4.3) fed from a temp, and from a wrapper
        #: (plus the per-tuple share of the message receive cost).
        self.local_cpu_per_tuple = chain_cpu_seconds_per_source_tuple(
            operators, params, include_receive=False)
        self.cpu_per_tuple = (self.local_cpu_per_tuple
                              + params.receive_cpu_seconds_per_tuple())


def _compile_key(params: SimulationParameters) -> tuple:
    """Every constant a compile reads (parameter objects are mutable and
    unhashable)."""
    return (params.move_tuple_instructions, params.hash_search_instructions,
            params.produce_tuple_instructions, params.message_instructions,
            params.tuples_per_message, params.cpu_mips)


def compiled_chains(qep: QEP, params: SimulationParameters
                    ) -> dict[str, CompiledSegment]:
    """Every chain of ``qep`` compiled under ``params``, by chain name;
    cached on the plan."""
    key = _compile_key(params)
    chains = qep.compiled.get(key)
    if chains is None:
        chains = qep.compiled[key] = {
            chain.name: CompiledSegment(chain.name, chain.name,
                                        chain.operators, params)
            for chain in qep.chains}
    return chains


def materialization_temp(chain: str) -> str:
    """Name of the temp chain ``chain``'s MF writes and its CF replays."""
    return f"mf:{chain}"


def compiled_degradations(qep: QEP, params: SimulationParameters
                          ) -> tuple[dict[str, CompiledSegment],
                                     dict[str, CompiledSegment]]:
    """The MF and the CF segment of every chain (Section 4.4), each by
    chain name and cached on the plan like :func:`compiled_chains`.

    MF(p) scans p's source into the temp; CF(p) replays the temp through
    the rest of p.  Both follow from the chain alone.
    """
    key = _compile_key(params)
    materializations = qep.compiled.get(("mf", *key))
    if materializations is None:
        materializations = qep.compiled[("mf", *key)] = {}
        complements = qep.compiled[("cf", *key)] = {}
        for chain in qep.chains:
            materializations[chain.name], complements[chain.name] = \
                _degradation_segments(chain, params)
    return materializations, qep.compiled[("cf", *key)]


def _degradation_segments(chain: PipelineChain, params: SimulationParameters
                          ) -> tuple[CompiledSegment, CompiledSegment]:
    scan = chain.scan
    mf_ops: list[Operator] = [
        ScanOp(name=scan.name, relation=scan.relation,
               scan_selectivity=scan.scan_selectivity,
               estimated_input_cardinality=scan.estimated_input_cardinality,
               estimated_output_cardinality=scan.estimated_output_cardinality),
        MatOp(name="mat[temp]", join=None,
              estimated_input_cardinality=scan.estimated_output_cardinality,
              estimated_output_cardinality=scan.estimated_output_cardinality),
    ]
    temp = materialization_temp(chain.name)
    temp_scan = ScanOp(
        name=f"scan({temp})", relation=temp, scan_selectivity=1.0,
        estimated_input_cardinality=scan.estimated_output_cardinality,
        estimated_output_cardinality=scan.estimated_output_cardinality)
    return (CompiledSegment(f"MF({chain.name})", chain.name, mf_ops, params),
            CompiledSegment(f"CF({chain.name})", chain.name,
                            [temp_scan, *chain.operators[1:]], params))


class Fragment:
    """One executable query fragment."""

    def __init__(self, runtime: "QueryRuntime", name: str, kind: FragmentKind,
                 chain: PipelineChain,
                 operators: Union[list[Operator], CompiledSegment],
                 source: FragmentInput):
        if not operators:
            raise SchedulingError(f"fragment {name!r} has no operators")
        # The runtime owns its fragments; the way back up is weak, so a
        # finished query is freed by reference count.  What a batch
        # needs is held directly and costs no dereference.
        self._runtime = weakref.ref(runtime)
        self.world = runtime.world
        self.name = name
        self.kind = kind
        self.chain = chain
        #: orders the fragment among its chain's as ``chain_fragments``
        #: does (the DQS's last sort tie-breaker), fixed at creation.
        self.rank = KIND_RANK[kind]
        self.source = source
        if not isinstance(operators, CompiledSegment):
            operators = CompiledSegment(name, chain.name, operators,
                                        self.world.params)
        self._adopt(operators)
        #: fractional-tuple accumulators, shared per (chain, operator
        #: name) across all fragments of the chain: a degraded chain's
        #: MF/CF/PC parts then produce exactly the same totals as the
        #: undivided pipeline would, whatever the interleaving.
        self._carry_pool = runtime.carry_pool
        self.status = FragmentStatus.PENDING
        #: a suspended fragment is never C-schedulable (the PC part of a
        #: degraded chain stays suspended while its MF runs).
        self.suspended = False
        #: set by the scheduler to stop a materialization fragment early
        #: ("partial materialization", Section 3.3): the fragment
        #: finalizes on its next turn, leaving unconsumed data for the PC.
        self.stop_requested = False
        # Terminal sink state (set lazily / by the runtime):
        self.hash_table: Optional[HashTable] = None
        self.temp_writer: Optional[TempWriter] = None
        #: tuples that could not be inserted on a memory overflow; the
        #: DQO's revision must dispose of them.
        self.pending_spill = 0
        # Statistics.
        self.tuples_in = 0
        self.tuples_out = 0
        self.batches = 0
        self.cpu_seconds = 0.0
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None

    # -- structure ---------------------------------------------------------
    @property
    def runtime(self) -> "QueryRuntime":
        """The query this fragment belongs to (alive as long as anything
        runs the fragment: the engine stack holds it)."""
        return self._runtime()  # type: ignore[return-value]

    @property
    def operators(self) -> tuple[Operator, ...]:
        """The segment's operators, read-only: the batch loop runs the
        compiled form, so the only way to change them is
        :meth:`replace_terminal`, which recompiles."""
        return self._operators

    def replace_terminal(self, terminal: Operator) -> None:
        """Swap the last operator and rebuild everything derived from the
        operator list (the DQO redirecting an overflowing build to a temp)."""
        self._adopt(CompiledSegment(
            self.name, self.chain.name, [*self._operators[:-1], terminal],
            self.world.params))

    def _adopt(self, segment: CompiledSegment) -> None:
        # Held flat: a batch and a planning phase read attributes.
        self._operators = segment.operators
        self._steps = segment.steps
        self._terminal_instructions = segment.terminal_instructions
        self._sink_kind = segment.sink_kind
        self.builds_join = segment.builds_join
        self.probed_joins = segment.probed_joins
        self.cpu_per_tuple = segment.cpu_per_tuple
        self.local_cpu_per_tuple = segment.local_cpu_per_tuple
        #: the planning policy's last priority key for this fragment and
        #: the CM wait snapshot it came from (derived from ``c_p``, so
        #: rebuilt with the segment).
        self.priority_key: Optional[tuple[Any, Any]] = None

    # Derived, not held: a fragment keeps at most 30 attributes, the most
    # CPython 3.11 stores inline (beyond that every attribute load on
    # the batch path goes through a per-instance dict).
    @property
    def writes_temp(self) -> bool:
        return self._sink_kind == "temp"

    @property
    def terminal(self) -> Operator:
        return self._operators[-1]

    # -- data availability ---------------------------------------------------
    def has_work(self) -> bool:
        """True if processing or finalization can make progress *now*.

        Neither source kind ever blocks the DQP inside a batch: queues
        hold arrived messages, temp readers hold prefetched tuples.  A
        stop request or an exhausted source leaves finalization work.
        """
        if self.status is FragmentStatus.DONE:
            return False
        source = self.source
        return self.stop_requested or source.exhausted or source.has_data()

    def wait_event(self) -> SimEvent:
        """Event that fires when this fragment may have work again."""
        if isinstance(self.source, SourceQueue):
            return self.source.data_event()
        return self.source.wait_event()

    # -- execution -----------------------------------------------------------
    def process_batch(self, max_tuples: int) -> Generator[SimEvent, Any, str]:
        """Process one batch; returns a ``BATCH_*`` marker. ``yield from`` me."""
        if self.status is FragmentStatus.DONE:
            raise SchedulingError(f"fragment {self.name!r} already done")
        world = self.world
        if self.status is FragmentStatus.PENDING:
            self.status = FragmentStatus.RUNNING
            self.started_at = world.sim.now
        source = self.source
        if self.stop_requested or source.exhausted:
            yield from self._finalize()
            return BATCH_FINISHED

        if isinstance(source, SourceQueue):
            count = source.take_batch(max_tuples)
        else:
            count = source.read_now(max_tuples)
        if count == 0:
            # EOF-only message, or the prefetcher has not caught up yet.
            if source.exhausted:
                yield from self._finalize()
                return BATCH_FINISHED
            return BATCH_EMPTY

        instructions, terminal_tuples = self._flow(count)
        # Pure operator work: queueing behind other CPU users (message
        # receives, I/O issue costs) is overhead, not fragment work.
        seconds = yield from world.cpu.work(instructions)
        self.cpu_seconds += seconds
        self.tuples_in += count
        self.batches += 1

        outcome = self._sink(terminal_tuples)
        if outcome is not None:
            return outcome
        self.tuples_out += terminal_tuples

        if source.exhausted:
            yield from self._finalize()
            return BATCH_FINISHED
        return BATCH_OK

    def _flow(self, count: int) -> tuple[float, int]:
        """Instruction cost and terminal tuple count for ``count`` inputs.

        Each step's fractional output is carried in the chain's shared
        pool so totals match the true cardinalities.
        """
        pool = self._carry_pool
        instructions = 0.0
        flowing = count
        for per_input, key, fanout, per_output in self._steps:
            instructions += flowing * per_input
            total = flowing * fanout + pool.get(key, 0.0)
            flowing = int(total)
            pool[key] = total - flowing
            instructions += flowing * per_output
        return instructions + flowing * self._terminal_instructions, flowing

    def _sink(self, tuples: int) -> Optional[str]:
        """Deliver ``tuples`` to the terminal; returns an outcome on overflow."""
        sink = self._sink_kind
        if sink == "table":
            if not self._require_table().insert(tuples):
                self.pending_spill = tuples
                return BATCH_OVERFLOW
        elif sink == "temp":
            self._require_writer().write(tuples)
        else:
            runtime = self.runtime
            if tuples > 0 and runtime.result_tuples == 0:
                runtime.first_result_at = self.world.sim.now
            runtime.result_tuples += tuples
        return None

    def _finalize(self) -> Generator[SimEvent, Any, None]:
        # Hash-table sealing and release are chain-level concerns handled
        # by the runtime: a degraded chain's CF and PC parts both insert
        # into (and probe against) the same tables.
        if self.status is FragmentStatus.DONE:
            return
        if self.writes_temp:
            yield from self._require_writer().finish()
        self.status = FragmentStatus.DONE
        self.finished_at = self.world.sim.now
        self.runtime.on_fragment_done(self)

    def _require_table(self) -> HashTable:
        if self.hash_table is None:
            raise SimulationError(
                f"fragment {self.name!r} runs without its hash table "
                "(was it admitted through the scheduler?)")
        return self.hash_table

    def _require_writer(self) -> TempWriter:
        if self.temp_writer is None:
            raise SimulationError(
                f"fragment {self.name!r} runs without its temp writer")
        return self.temp_writer

    def __repr__(self) -> str:
        return (f"Fragment({self.name!r}, {self.kind.value}, "
                f"{self.status.value}, in={self.tuples_in})")
