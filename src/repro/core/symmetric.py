"""DPHJ: operator-level adaptation via double-pipelined hash joins.

Section 1.1's first adaptation level: "using relational operators that
are able to absorb delays in delivery.  [8] has adapted the
double-pipelined hash join [16] … However, such an approach is
restricted to hash-based queries."

A double-pipelined (symmetric) hash join keeps **two** hash tables, one
per input; a tuple arriving on either side is inserted into its own
table and immediately probes the opposite one.  No input is blocking, so
the whole plan is a single pipeline region: the engine can consume any
source the moment data arrives, which absorbs delivery delays exactly
like DSE — at the price of holding *every* table of *both* sides in
memory simultaneously and of extra per-tuple work (every stream pays an
insert at every level it crosses).

Content-free semantics: when a batch of ``n`` tuples flows into a join
from one side while the opposite side has ``m`` of its eventual ``M``
tuples resident, the expected match count is ``n * σ * m`` (``σ`` the
crossing selectivity).  Every (left, right) pair is counted exactly once
— when its *later* element arrives — so totals converge to the exact
join cardinalities, independent of interleaving.

The engine half of this module shares the one-shot front-end's wrapper
spawn and main-process steps (:mod:`repro.core.engine`) but runs one
simple data-driven loop instead of DQO → DQS → DQP (round-robin over
sources with data): with symmetric operators there are no dependency constraints for
a scheduler to reason about, which is precisely why the paper's
contribution targets the scheduling level instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Mapping, Optional

from repro.catalog.catalog import Catalog
from repro.common.errors import (
    ConfigurationError,
    MemoryOverflowError,
    SimulationError,
)
from repro.config import SimulationParameters
from repro.core.engine import (
    main_value,
    seeded_wrappers,
    spawn_main,
    start_wrappers,
)
from repro.core.runtime import World
from repro.mediator.buffer import HashTable
from repro.query.tree import JoinTree
from repro.exec import SimEvent
from repro.wrappers.delays import DelayModel

LEFT = "left"
RIGHT = "right"


@dataclass
class SymmetricJoin:
    """One double-pipelined join node.

    With spilling enabled (the XJoin-style variant), each side tracks a
    *resident* portion (in its hash table) and a *spilled* portion (on a
    disk temp); online probing matches against the resident portion only,
    and a cleanup phase after the last arrival produces the remaining
    matches from the spilled data.
    """

    name: str
    left_relations: tuple[str, ...]
    right_relations: tuple[str, ...]
    crossing_selectivity: float
    #: exact number of tuples each side will eventually contribute.
    left_total: float
    right_total: float
    left_inserted: float = 0.0
    right_inserted: float = 0.0
    left_spilled: int = 0
    right_spilled: int = 0
    left_table: Optional[HashTable] = None
    right_table: Optional[HashTable] = None
    #: exact (pre-rounding) output emitted so far, online + cleanup.
    emitted_true: float = 0.0
    #: the joins the output of this one flows through on its way up.
    continuation: list[tuple["SymmetricJoin", str]] = field(
        default_factory=list)

    def opposite_resident(self, side: str) -> float:
        """Tuples of the opposite side currently probe-able online."""
        if side == LEFT:
            return self.right_inserted - self.right_spilled
        return self.left_inserted - self.left_spilled

    def record_insert(self, side: str, count: float) -> None:
        if side == LEFT:
            self.left_inserted += count
        else:
            self.right_inserted += count

    def record_spill(self, side: str, count: int) -> None:
        if side == LEFT:
            self.left_spilled += count
        else:
            self.right_spilled += count

    @property
    def expected_output(self) -> float:
        return self.crossing_selectivity * self.left_total * self.right_total

    @property
    def missing_output(self) -> float:
        """Output still owed once every input has arrived."""
        return max(0.0, self.expected_output - self.emitted_true)

    def table(self, side: str) -> HashTable:
        table = self.left_table if side == LEFT else self.right_table
        if table is None:
            raise SimulationError(f"join {self.name}: {side} table missing")
        return table


@dataclass
class SourcePath:
    """The joins a source's stream crosses on its way to the root."""

    relation: str
    #: (join, side) from the leaf upward; ``side`` is where the stream
    #: inserts (and the opposite side is probed).
    steps: list[tuple[SymmetricJoin, str]] = field(default_factory=list)


class SymmetricPlan:
    """A join tree expanded into double-pipelined joins."""

    def __init__(self, catalog: Catalog, tree: JoinTree):
        self.catalog = catalog
        self.tree = tree
        self.joins: list[SymmetricJoin] = []
        self.paths: dict[str, SourcePath] = {
            name: SourcePath(name) for name in tree.relations()}
        # Post-order expansion appends joins deepest-first, so every
        # path's steps are already in leaf-to-root order.
        self._expand(tree)
        # Each join's output continues along the shared suffix of its
        # members' paths (needed by the spill-cleanup phase).
        for join in self.joins:
            member = join.left_relations[0]
            steps = self.paths[member].steps
            index = next(i for i, (j, _side) in enumerate(steps)
                         if j is join)
            join.continuation = steps[index + 1:]

    def _expand(self, node: JoinTree) -> tuple[str, ...]:
        if node.is_leaf:
            return (node.relation,)
        left = self._expand(node.left)
        right = self._expand(node.right)
        stats = self.catalog.statistics
        crossing = 1.0
        found = False
        for a in left:
            for b in right:
                if stats.has_edge(a, b):
                    crossing *= stats.selectivity(a, b)
                    found = True
        if not found:
            raise ConfigurationError(
                f"no join edge between {left} and {right} (cross product)")
        join = SymmetricJoin(
            name=f"S{len(self.joins) + 1}",
            left_relations=left,
            right_relations=right,
            crossing_selectivity=crossing,
            left_total=self.catalog.estimate_cardinality(left),
            right_total=self.catalog.estimate_cardinality(right))
        self.joins.append(join)
        # Every stream feeding either side crosses this join.
        for name in left:
            self.paths[name].steps.append((join, LEFT))
        for name in right:
            self.paths[name].steps.append((join, RIGHT))
        return left + right

    def total_table_bytes(self) -> int:
        """Memory needed with every table of every join resident."""
        tuple_size = self.catalog.result_tuple_size
        return int(sum(join.left_total + join.right_total
                       for join in self.joins) * tuple_size)


@dataclass
class SymmetricResult:
    """Measurements of one DPHJ execution."""

    strategy: str
    response_time: float
    result_tuples: int
    cpu_busy_time: float
    cpu_utilization: float
    stall_time: float
    memory_peak_bytes: int
    batches_processed: int
    tuples_spilled: int = 0
    cleanup_time: float = 0.0
    #: virtual time of the first result tuple — DPHJ's strong suit.
    time_to_first_tuple: Optional[float] = None

    def summary(self) -> str:
        return (f"{self.strategy}: {self.response_time:.3f}s "
                f"({self.result_tuples} tuples, cpu {self.cpu_utilization:.0%}, "
                f"stall {self.stall_time:.3f}s, "
                f"peak {self.memory_peak_bytes / 1e6:.1f} MB, "
                f"{self.tuples_spilled} spilled)")


class SymmetricHashJoinEngine:
    """Executes a join tree with double-pipelined hash joins."""

    name = "DPHJ"

    def __init__(self, catalog: Catalog, tree: JoinTree,
                 delay_models: Mapping[str, DelayModel],
                 params: Optional[SimulationParameters] = None,
                 seed: int = 0,
                 allow_spill: bool = False):
        self.catalog = catalog
        self.tree = tree
        self.params = params if params is not None else SimulationParameters()
        self.seed = seed
        #: XJoin-style reactive spilling: when the tables no longer fit,
        #: batches spill to disk and a cleanup phase finishes the join
        #: after the last arrival.  Off by default: plain DPHJ *requires*
        #: everything resident and refuses otherwise.
        self.allow_spill = allow_spill
        self.delay_models = dict(delay_models)
        missing = set(tree.relations()) - set(self.delay_models)
        if missing:
            raise ConfigurationError(
                f"no delay model for source(s): {sorted(missing)}")

    def run(self) -> SymmetricResult:
        # The result returns no metrics registry, so the machine keeps none.
        world = World(self.params.with_overrides(telemetry_enabled=False),
                      seed=self.seed)
        plan = SymmetricPlan(self.catalog, self.tree)
        self._allocate_tables(world, plan)
        start_wrappers(self.tree.relations(),
                       seeded_wrappers(world, self.catalog,
                                       self.delay_models), [])
        driver = _Driver(world, plan, self.params,
                         allow_spill=self.allow_spill)
        main = spawn_main(world.sim, driver.run(), "dphj")
        world.sim.run()
        response_time = main_value(main)
        return SymmetricResult(
            strategy=self.name if not self.allow_spill else "DPHJ-X",
            response_time=response_time,
            result_tuples=driver.result_tuples,
            cpu_busy_time=world.cpu.busy_time,
            cpu_utilization=(world.cpu.busy_time / response_time
                             if response_time > 0 else 0.0),
            stall_time=driver.stall_time,
            memory_peak_bytes=world.memory.peak_bytes,
            batches_processed=driver.batches,
            tuples_spilled=int(world.buffer.tuples_spilled.value),
            cleanup_time=driver.cleanup_time,
            time_to_first_tuple=driver.first_result_at)

    def _allocate_tables(self, world: World, plan: SymmetricPlan) -> None:
        """Reserve both tables of every join up front (DPHJ's price).

        The spilling variant starts with empty reservations and grows
        page by page; plain DPHJ refuses a budget that cannot hold
        everything.
        """
        params = self.params
        if not self.allow_spill:
            needed = plan.total_table_bytes()
            if not world.memory.would_fit(needed):
                raise MemoryOverflowError(
                    "symmetric-plan", required=needed,
                    available=world.memory.available_bytes)
        for join in plan.joins:
            estimate = 0.0 if self.allow_spill else None
            join.left_table = HashTable(
                f"{join.name}:{LEFT}", world.memory, params.tuple_size,
                params.page_size,
                join.left_total if estimate is None else estimate)
            join.right_table = HashTable(
                f"{join.name}:{RIGHT}", world.memory, params.tuple_size,
                params.page_size,
                join.right_total if estimate is None else estimate)


class _Driver:
    """The data-driven execution loop (round-robin over ready sources)."""

    def __init__(self, world: World, plan: SymmetricPlan,
                 params: SimulationParameters, allow_spill: bool = False):
        self.world = world
        self.plan = plan
        self.params = params
        self.allow_spill = allow_spill
        self.result_tuples = 0
        self.first_result_at: Optional[float] = None
        self.stall_time = 0.0
        self.cleanup_time = 0.0
        self.batches = 0
        self._carries: dict[tuple[str, str], float] = {}
        #: lazily created spill temps per (join name, side).
        self._spill_writers: dict[tuple[str, str], Any] = {}

    def run(self) -> Generator[SimEvent, Any, float]:
        sim = self.world.sim
        cm = self.world.cm
        sources = list(self.plan.paths)
        cursor = 0
        while not cm.all_exhausted():
            ready = [name for name in sources
                     if cm.queue(name).has_data()]
            if not ready:
                events = [cm.queue(name).data_event() for name in sources
                          if not cm.queue(name).exhausted]
                if not events:
                    break
                started = sim.now
                yield sim.any_of(events)
                self.stall_time += sim.now - started
                continue
            # Round-robin among ready sources for fairness.
            name = ready[cursor % len(ready)]
            cursor += 1
            count = cm.queue(name).take_batch(self.params.effective_batch_tuples)
            if count:
                yield from self._flow(self.plan.paths[name].steps, count,
                                      carry_source=name)
                self.batches += 1
        if self.allow_spill:
            cleanup_started = sim.now
            yield from self._cleanup()
            self.cleanup_time = sim.now - cleanup_started
        for join in self.plan.joins:
            join.table(LEFT).seal()
            join.table(RIGHT).seal()
        return sim.now

    def _flow(self, steps: list[tuple[SymmetricJoin, str]], count: int,
              carry_source: str) -> Generator[SimEvent, Any, None]:
        """Push a batch up a path of join steps, charging CPU as one piece."""
        params = self.params
        instructions = 0.0
        flowing: float = count
        for join, side in steps:
            # Insert into own table (or spill this increment to disk)...
            instructions += flowing * params.move_tuple_instructions
            whole = int(round(flowing))
            if join.table(side).insert(whole):
                pass
            elif self.allow_spill:
                self._spill(join, side, whole)
            else:
                raise MemoryOverflowError(
                    join.name,
                    required=params.page_size,
                    available=self.world.memory.available_bytes)
            join.record_insert(side, flowing)
            # ...and probe the opposite side's *resident* portion.
            instructions += flowing * params.hash_search_instructions
            opposite = join.opposite_resident(side)
            matches_true = flowing * join.crossing_selectivity * opposite
            join.emitted_true += matches_true
            matches = self._carry((carry_source, join.name), matches_true)
            instructions += matches * params.produce_tuple_instructions
            flowing = matches
            if flowing <= 0:
                break
        yield from self.world.cpu.work(instructions)
        # A positive flow after the last step survived every join on the
        # path — i.e. it reached the root: those are result tuples.  (A
        # single-relation query has an empty path; its scan *is* the
        # result.)
        if flowing > 0:
            if self.result_tuples == 0:
                self.first_result_at = self.world.sim.now
            self.result_tuples += int(flowing)

    # -- spilling (the XJoin-style variant) -------------------------------
    def _spill(self, join: SymmetricJoin, side: str, count: int) -> None:
        key = (join.name, side)
        writer = self._spill_writers.get(key)
        if writer is None:
            writer = self.world.buffer.create_temp(
                f"xspill:{join.name}:{side}")
            self._spill_writers[key] = writer
        writer.write(count)
        join.record_spill(side, count)

    def _cleanup(self) -> Generator[SimEvent, Any, None]:
        """Produce the matches the online phase could not (XJoin phase 2).

        Runs bottom-up (creation order is post-order): each join reads
        its spilled portions back from disk, emits its missing output,
        and flows it up the continuation path where parents treat it as
        a late arrival.
        """
        params = self.params
        for join in self.plan.joins:
            # Wait for the spill writers' write-behind I/O, then read the
            # spilled tuples back.
            for side in (LEFT, RIGHT):
                writer = self._spill_writers.get((join.name, side))
                if writer is None:
                    continue
                temp = yield from writer.finish()
                chunk = params.io_chunk_pages
                page = 0
                while page < temp.pages:
                    pages = min(chunk, temp.pages - page)
                    yield from self.world.buffer.chunk_io(temp, page, pages)
                    page += pages
                yield from self.world.cpu.work(
                    temp.tuples * params.hash_search_instructions)
                self.world.buffer.destroy_temp(temp)
            missing = join.missing_output
            if missing < 1.0:
                continue
            produced = self._carry(("cleanup", join.name), missing)
            join.emitted_true += missing
            yield from self.world.cpu.work(
                produced * params.produce_tuple_instructions)
            if produced <= 0:
                continue
            if not join.continuation:
                if self.result_tuples == 0:
                    self.first_result_at = self.world.sim.now
                self.result_tuples += produced
                continue
            yield from self._flow(join.continuation, produced,
                                  carry_source=f"cleanup:{join.name}")

    def _carry(self, key: tuple[str, str], value: float) -> int:
        # Round-to-nearest with a signed carry: the terminal remainder of
        # each stream is at most half a tuple (a floor carry would lose
        # up to a whole one, and early losses are amplified by the
        # downstream fanouts).
        total = value + self._carries.get(key, 0.0)
        whole = int(total + 0.5)
        self._carries[key] = total - whole
        return whole
