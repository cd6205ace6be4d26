"""Live sources and the wall-clock query engine.

The counterpart of :class:`repro.wrappers.source.Wrapper` /
:class:`repro.core.engine.QueryEngine` for the :class:`AsyncioKernel`
backend: batches arrive from *real* async callables or async generators
with real (jittery, unpredictable) delays, and the unchanged DQO → DQS →
DQP stack schedules around them.  This is the setting the paper's
strategies were designed for — the simulator only ever emulated it.

* :class:`LiveWrapper` — bridges one async batch source into the
  mediator's communication manager.  An :mod:`asyncio` feeder task pulls
  batches and hands them to a kernel-side pump process, which delivers
  through ``CommunicationManager.deliver`` so the window protocol,
  per-message CPU costs and rate estimation all apply exactly as in the
  simulation — and nothing else does: a live run costs the modelled
  machine what the simulated wrapper would.
* :func:`jittered_batches` — a ready-made async source: ships a relation
  in message-sized batches, each a jittered per-tuple wait after the
  last (the live analogue of the paper's uniform-[0, 2w] delay model),
  paced against absolute deadlines.
* :class:`LiveQueryEngine` — builds a :class:`World` on an
  :class:`AsyncioKernel`, runs one
  :class:`~repro.core.engine.QueryRun` over :func:`live_wrappers` and
  returns the same :class:`ExecutionResult` as the simulated engine.
"""

from __future__ import annotations

import asyncio
from pathlib import Path
from typing import (
    Any,
    AsyncIterator,
    Awaitable,
    Callable,
    Generator,
    Mapping,
    Optional,
    Union,
)

import numpy as np

from repro.common.errors import ConfigurationError, SimulationError
from repro.config import SimulationParameters
from repro.exec.aio import AsyncioKernel
from repro.exec.core import SimEvent, caught
from repro.observability.flight import (
    ENTRY_PHASE,
    ENTRY_SAMPLE,
    FlightRecorder,
    StallWatchdog,
)
from repro.observability.live import MetricsPublisher
from repro.observability.server import ObservabilityServer

#: a live batch source: an async iterator of tuple counts, or an async
#: callable returning the next count (``None`` meaning end-of-stream).
BatchSource = Union[AsyncIterator[int], Callable[[], Awaitable[Optional[int]]]]


#: batches a feeder may hold ahead of its pump: the capacity of the
#: simulated wrapper's ``outbound`` store, so a live source runs exactly
#: as far ahead of the window protocol as a simulated one.
_PIPELINE_DEPTH = 2


async def jittered_batches(cardinality: int, tuples_per_batch: int,
                           mean_wait: float, rng: np.random.Generator,
                           jitter: float = 1.0) -> AsyncIterator[int]:
    """Ship ``cardinality`` tuples in batches with jittered real delays.

    Each batch takes ``count * w`` seconds to produce, where ``w`` is
    drawn uniformly from ``[(1 - jitter) * mean_wait,
    (1 + jitter) * mean_wait]`` — with the default ``jitter=1`` that is
    the paper's uniform-[0, 2w] per-tuple wait, applied per batch.

    The source paces against an absolute ``due`` time, not pause by
    pause: a wake that comes late shortens the next pause, so host timer
    lateness is bounded by one overshoot rather than summed over the
    stream.  Time the consumer holds a batch (the generator is suspended
    at ``yield``) is not production time: it moves ``due`` back by as
    much, so a source that was held up resumes at its modelled rate
    instead of bursting to catch up.
    """
    if cardinality < 0 or tuples_per_batch < 1:
        raise ConfigurationError(
            f"bad live source shape: cardinality={cardinality}, "
            f"tuples_per_batch={tuples_per_batch}")
    if not 0.0 <= jitter <= 1.0:
        raise ConfigurationError(f"jitter must be in [0, 1], got {jitter}")
    clock = asyncio.get_running_loop().time
    due = clock()
    remaining = cardinality
    while remaining > 0:
        count = min(tuples_per_batch, remaining)
        wait = float(rng.uniform(1.0 - jitter, 1.0 + jitter)) * mean_wait
        due += count * wait
        pause = due - clock()
        if pause > 0:
            await asyncio.sleep(pause)
        handed_over = clock()
        yield count
        due += clock() - handed_over
        remaining -= count


class LiveWrapper:
    """One real (async) source feeding the mediator.

    Mirrors the simulated wrapper's external surface (``name``,
    ``tuples_sent``, ``production_time``, ``blocked_time``,
    ``finished_at``) and its timing model: production overlaps delivery
    through a :data:`_PIPELINE_DEPTH`-deep inbox, every data batch is
    one modelled message, and the end of the stream is not a message.
    """

    def __init__(self, kernel: AsyncioKernel, name: str, cm: Any,
                 source: BatchSource):
        self.kernel = kernel
        self._name = name
        self.cm = cm
        self._source = source
        self.tuples_sent = 0
        self.production_time = 0.0      # real seconds inside the source
        self.blocked_time = 0.0         # real seconds held between batches
        self.finished_at: Optional[float] = None
        #: what the source raised mid-stream, if it did; the stream is
        #: closed regardless and ``QueryRun.check_complete`` reports it.
        self.error: Optional[Exception] = None
        self._inbox: asyncio.Queue[tuple[int, float]] = asyncio.Queue(
            _PIPELINE_DEPTH)
        self._exhausted = False
        self._data: Optional[SimEvent] = None
        self._task: Optional[asyncio.Task] = None
        self._pump_process: Any = None

    @property
    def name(self) -> str:
        return self._name

    def start(self) -> None:
        """Register with the CM, start the feeder task and pump process."""
        if self._task is not None:
            raise SimulationError(f"live wrapper {self.name!r} started twice")
        self.cm.register_source(self.name)
        self._pump_process = self.kernel.process(
            self._pump(), name=f"live:{self.name}")
        self._task = asyncio.ensure_future(self._feed())

    def stop(self) -> None:
        """Cancel the feeder task (used on engine failure paths)."""
        if self._task is not None and not self._task.done():
            self._task.cancel()

    def _aiter(self) -> AsyncIterator[int]:
        source = self._source
        if hasattr(source, "__anext__"):
            return source  # type: ignore[return-value]

        async def _poll() -> AsyncIterator[int]:
            while True:
                count = await source()  # type: ignore[operator]
                if count is None:
                    return
                yield count

        return _poll()

    async def _feed(self) -> None:
        """asyncio side: pull batches, time their production, wake the pump.

        The next batch is pulled while the previous ones are still on
        their way through ``deliver``, as the simulated wrapper keeps
        producing into its ``outbound`` store; once the inbox holds
        :data:`_PIPELINE_DEPTH` batches the source is left suspended, so
        the window protocol still slows a producer down.

        A batch's production time is the time spent inside the source,
        from asking for the batch to getting it.  Time spent waiting for
        inbox room is the mediator's doing and is kept out of it, or the
        rate estimator would read a back-pressured source as a slow one.
        """
        clock = asyncio.get_running_loop().time
        try:
            asked = clock()
            async for count in self._aiter():
                got = clock()
                self.production_time += got - asked
                await self._inbox.put((int(count), got - asked))
                self._wake_pump()
                asked = clock()
                self.blocked_time += asked - got
        except Exception as exc:
            self.error = caught(exc)
        finally:
            # Also on cancellation: the pump must end the stream, or it
            # would stay parked on a kernel that outlives this query.
            self._exhausted = True
            self._wake_pump()

    def _wake_pump(self) -> None:
        if self._data is not None and not self._data.triggered:
            self._data.succeed()

    def _pump(self) -> Generator[SimEvent, Any, None]:
        """Kernel side: drain the inbox through the window protocol.

        The stream ends with ``cm.close``, not with a ``deliver``: an
        async iterator only reports exhaustion when asked for the *next*
        batch, too late to flag the last message as the simulated
        wrapper does, and a separate end-of-stream message would bill
        the modelled CPU for a receive the model does not have.
        """
        while True:
            while not self._inbox.empty():
                count, production = self._inbox.get_nowait()
                yield from self.cm.deliver(self.name, count, eof=False,
                                           production_seconds=production)
                self.tuples_sent += count
            if self._exhausted:
                yield from self.cm.close(self.name)
                self.finished_at = self.kernel.now
                return
            self._data = self.kernel.event(name=f"live-data:{self.name}")
            yield self._data
            self._data = None

    def __repr__(self) -> str:
        return (f"LiveWrapper({self.name!r}, sent={self.tuples_sent}, "
                f"eof={self.finished_at is not None})")


def live_wrappers(world: Any,
                  sources: Mapping[str, Callable[[], BatchSource]]
                  ) -> Callable[[str], LiveWrapper]:
    """Per-relation :class:`LiveWrapper` factory for a
    :class:`~repro.core.engine.QueryRun` on ``world``; each relation's
    stream is built fresh from its ``sources`` factory."""
    return lambda relation: LiveWrapper(world.sim, relation, world.cm,
                                        sources[relation]())


class LiveQueryEngine:
    """Runs one query with one strategy against live async sources.

    The exact engine stack of :class:`repro.core.engine.QueryEngine` —
    same DQO / DQS / DQP, same mediator, same telemetry — but the world
    is built on an :class:`AsyncioKernel` and the sources are
    :class:`LiveWrapper` instances, so response times are wall-clock and
    arrival order is genuinely unpredictable.

    ``sources`` maps every source relation of the plan to a *factory*
    returning a fresh :data:`BatchSource` (factories, because one
    engine run consumes the stream).

    The live observability plane is opt-in per run:

    * ``serve_port`` (an int, 0 for ephemeral) starts an
      :class:`~repro.observability.server.ObservabilityServer` next to
      the run — ``/metrics``, ``/healthz`` and ``/stream`` answer for
      the duration of the run, fed by a fresh snapshot on every sampler
      tick.  The bound server is exposed as :attr:`server` while the run
      is in flight.
    * ``flight_dump`` arms a :class:`FlightRecorder` (and, with
      ``stall_after`` / ``deadline``, a :class:`StallWatchdog`): a run
      that crashes, wedges, or overruns its deadline leaves a loadable
      post-mortem at that path instead of nothing.
    * ``span_dump`` arms the causal span recorder (wall-clock spans on
      this backend) and writes the JSON + chrome-trace export there when
      the run ends — success or failure.
    """

    def __init__(self, catalog: Any, qep: Any, policy: Any,
                 sources: Mapping[str, Callable[[], BatchSource]],
                 params: Optional[SimulationParameters] = None,
                 seed: int = 0,
                 serve_port: Optional[int] = None,
                 serve_host: str = "127.0.0.1",
                 flight_dump: Optional[Union[str, Path]] = None,
                 flight_capacity: int = 2048,
                 span_dump: Optional[Union[str, Path]] = None,
                 stall_after: Optional[float] = None,
                 deadline: Optional[float] = None,
                 on_serve: Optional[Callable[[ObservabilityServer], None]] = None,
                 memory_bytes: Optional[int] = None,
                 broker: Optional[Any] = None):
        from repro.plan.validation import validate_qep

        self.catalog = catalog
        self.qep = qep
        self.policy = policy
        self.params = params if params is not None else SimulationParameters()
        self.seed = seed
        #: per-query budget override (None: the configured default).
        self.memory_bytes = memory_bytes
        #: optional :class:`~repro.resources.broker.MemoryBroker` to draw
        #: the query's lease from — the same resource-governance plane as
        #: the simulator backend, bound to this run's AsyncioKernel.
        self.broker = broker
        validate_qep(qep)
        self.sources = dict(sources)
        missing = set(qep.source_relations()) - set(self.sources)
        if missing:
            raise ConfigurationError(
                f"no live source for relation(s): {sorted(missing)}")
        if (stall_after is not None or deadline is not None) \
                and flight_dump is None:
            raise ConfigurationError(
                "stall_after/deadline need a flight_dump path to dump to")
        self.serve_port = serve_port
        self.serve_host = serve_host
        self.flight_dump = Path(flight_dump) if flight_dump is not None else None
        self.flight_capacity = flight_capacity
        self.span_dump = Path(span_dump) if span_dump is not None else None
        self.stall_after = stall_after
        self.deadline = deadline
        self.on_serve = on_serve
        #: live-plane handles, populated for the duration of :meth:`run`.
        self.server: Optional[ObservabilityServer] = None
        self.publisher: Optional[MetricsPublisher] = None
        self.recorder: Optional[FlightRecorder] = None

    async def run(self) -> Any:
        """Execute once on the asyncio backend; returns ExecutionResult."""
        from repro.core.engine import QueryRun
        from repro.core.runtime import World

        kernel = AsyncioKernel()
        world = World(self.params, seed=self.seed, kernel=kernel,
                      memory_bytes=self.memory_bytes, broker=self.broker)
        recorder = None
        if self.flight_dump is not None:
            recorder = self.recorder = FlightRecorder(
                capacity=self.flight_capacity).attach(world.telemetry)
        if self.span_dump is not None and world.telemetry.spans is None:
            # Arm the recorder before the DQP is built so its compiled
            # hook table includes the span callables.
            from repro.observability.spans import SpanRecorder
            world.telemetry.spans = SpanRecorder(kernel)
        publisher = None
        if self.serve_port is not None:
            publisher = self.publisher = MetricsPublisher()
            self.server = ObservabilityServer(
                publisher, host=self.serve_host, port=self.serve_port).start()
            if self.on_serve is not None:
                self.on_serve(self.server)

        query = QueryRun(world, self.qep, self.policy,
                         live_wrappers(world, self.sources))
        watchdog = None
        try:
            main = query.start()

            def _on_sample(sample: Any) -> None:
                snapshot = query.snapshot()
                if recorder is not None:
                    recorder.record(ENTRY_SAMPLE, sample.time,
                                    memory_used=sample.memory_used_bytes)
                    recorder.latest_snapshot = snapshot
                if publisher is not None:
                    publisher.publish(snapshot)

            # Note: an empty FlightRecorder is falsy (it has __len__), so
            # the identity checks here are load-bearing.
            query.sample(_on_sample if recorder is not None
                         or publisher is not None else None)
            if publisher is not None:
                publisher.publish(query.snapshot())  # scrape before 1st tick

            run_task = asyncio.ensure_future(kernel.run(until_event=main))
            if recorder is not None and (self.stall_after is not None
                                         or self.deadline is not None):
                loop = asyncio.get_running_loop()

                def _abort(reason: str, path: Path) -> None:
                    loop.call_soon_threadsafe(run_task.cancel)

                recorder.record(ENTRY_PHASE, kernel.now, name="run-start")
                watchdog = StallWatchdog(recorder, self.flight_dump,
                                         stall_after=self.stall_after,
                                         deadline=self.deadline,
                                         on_fire=_abort)
                watchdog.start()

            try:
                try:
                    await run_task
                except asyncio.CancelledError:
                    if watchdog is not None \
                            and watchdog.fired_reason is not None:
                        raise SimulationError(
                            f"live run aborted by watchdog "
                            f"({watchdog.fired_reason}); flight recorder "
                            f"dumped to {self.flight_dump}") from None
                    raise

                query.check_complete()
                if recorder is not None:
                    recorder.record(ENTRY_PHASE, kernel.now, name="run-end")
            except BaseException as exc:
                if recorder is not None and watchdog is not None \
                        and watchdog.fired_reason is not None:
                    pass  # the watchdog already dumped with its own reason
                elif recorder is not None and self.flight_dump is not None \
                        and not isinstance(exc, asyncio.CancelledError):
                    recorder.latest_snapshot = query.snapshot()
                    recorder.dump(self.flight_dump, reason="crash",
                                  error=repr(exc))
                raise
        finally:
            # Also reached when the run never attached (a source that
            # cannot be opened): siblings started before it are stopped.
            if watchdog is not None:
                watchdog.stop()
            if self.span_dump is not None \
                    and world.telemetry.spans is not None:
                # Written on success *and* failure, like the flight dump.
                world.telemetry.spans.write_json(self.span_dump)
            query.detach()
            if self.broker is not None:
                # The caller's pool outlives this run: return its bytes.
                self.broker.release(world.memory)
            if publisher is not None:
                if query.attached:
                    publisher.publish(query.snapshot())  # final /stream state
                publisher.close()
            if self.server is not None:
                self.server.stop()
                self.server = None

        return query.result()
