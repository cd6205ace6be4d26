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
piece.  Everything a batch needs from the operator list is fixed when
the fragment is built, so the list is *compiled* once — into flat
per-operator cost steps and one sink kind — and a batch is a loop over
floats; ``tests/test_fragments_runtime.py`` keeps the per-batch
interpreter it replaced as the oracle.
"""

from __future__ import annotations

import enum
import weakref
from typing import Any, Generator, Literal, Optional, TYPE_CHECKING, Union

from repro.common.errors import SchedulingError, SimulationError
from repro.mediator.buffer import HashTable, TempReader, TempWriter
from repro.mediator.queues import SourceQueue
from repro.plan.operators import MatOp, Operator, OutputOp, ProbeOp, ScanOp
from repro.exec import SimEvent
from repro.plan.qep import PipelineChain

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

FragmentInput = Union[SourceQueue, TempReader]

#: one compiled scan or probe: instructions per input tuple, the carry
#: pool key of its fractional output, output tuples per input tuple,
#: instructions per output tuple.
FlowStep = tuple[float, tuple[str, str], float, float]
#: where a fragment's terminal delivers: a hash-table build, a temp
#: materialization, or the query output.
SinkKind = Literal["table", "temp", "output"]


class Fragment:
    """One executable query fragment."""

    def __init__(self, runtime: "QueryRuntime", name: str, kind: FragmentKind,
                 chain: PipelineChain, operators: list[Operator],
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
        self.source = source
        self._compile(operators)
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
        self._compile([*self._operators[:-1], terminal])

    def _compile(self, operators: list[Operator]) -> None:
        """Resolve ``operators`` into the per-batch constants.

        Table 1's costs and the joins' actual fanouts do not change
        while a query runs, so the operator walk happens here, once.
        """
        params = self.world.params
        chain = self.chain.name
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
                raise SchedulingError(
                    f"unknown operator {op!r} in {self.name!r}")
        terminal = operators[-1]
        sink: SinkKind
        if isinstance(terminal, MatOp):
            sink = "table" if terminal.join is not None else "temp"
            terminal_instructions = params.move_tuple_instructions
        elif isinstance(terminal, OutputOp):
            sink = "output"
            terminal_instructions = 0.0
        else:
            raise SchedulingError(
                f"fragment {self.name!r} has unsupported terminal "
                f"{terminal!r}")
        self._operators = tuple(operators)
        self._steps = tuple(steps)
        self._terminal_instructions = terminal_instructions
        self._sink_kind = sink

    @property
    def terminal(self) -> Operator:
        return self._operators[-1]

    @property
    def builds_join(self) -> Optional[str]:
        """Name of the join whose hash table this fragment builds, if any."""
        terminal = self.terminal
        if isinstance(terminal, MatOp) and terminal.join is not None:
            return terminal.join.name
        return None

    @property
    def writes_temp(self) -> bool:
        terminal = self.terminal
        return isinstance(terminal, MatOp) and terminal.join is None

    @property
    def is_output(self) -> bool:
        return isinstance(self.terminal, OutputOp)

    def probed_joins(self) -> list[str]:
        """Names of the joins probed inside this fragment."""
        return [op.join.name for op in self.operators if isinstance(op, ProbeOp)]

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
        yield from world.cpu.work(instructions)
        # Pure operator work: queueing behind other CPU users (message
        # receives, I/O issue costs) is overhead, not fragment work.
        self.cpu_seconds += world.params.instructions_seconds(instructions)
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

    def describe(self) -> str:
        ops = " -> ".join(
            op.name if not isinstance(op, MatOp) else
            (f"mat[{op.join.name}]" if op.join else "mat[temp]")
            for op in self.operators)
        source = (self.source.source if isinstance(self.source, SourceQueue)
                  else self.source.temp.name)
        return f"{self.name}({self.kind.value}) {source}: {ops}"

    def __repr__(self) -> str:
        return (f"Fragment({self.name!r}, {self.kind.value}, "
                f"{self.status.value}, in={self.tuples_in})")
