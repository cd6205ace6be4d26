"""The wall-clock query engine, and the bridge for real async sources.

The counterpart of :class:`repro.core.engine.QueryEngine` for the
:class:`AsyncioKernel` backend: the unchanged DQO → DQS → DQP stack runs
on the wall clock instead of in virtual time.

* :class:`LiveQueryEngine` — the same query and the same modelled
  :class:`~repro.wrappers.source.Wrapper` sources as ``QueryEngine``
  (delay models drawn from the same seeded streams), on an
  :class:`AsyncioKernel`, plus an opt-in observability plane (HTTP
  server, flight recorder and watchdog, span export).  Its numbers are
  the virtual-time run's: the dispatch clock reads each event's
  deadline, however late the host wakes.
* :class:`LiveWrapper` — the modelled wrapper's state with its
  messages produced by an :mod:`asyncio` task pulling batches from a
  *real* async source; :func:`live_wrappers` puts such sources under a
  :class:`~repro.core.engine.QueryRun` by hand.
"""

from __future__ import annotations

import asyncio
from pathlib import Path
from typing import (Any, AsyncIterator, Callable, Generator, Mapping,
                    Optional, Union)

from repro.common.errors import ConfigurationError, SimulationError
from repro.config import SimulationParameters
from repro.exec.aio import AsyncioKernel
from repro.exec.core import Process, SimEvent, caught
from repro.observability.flight import (
    ENTRY_PHASE,
    ENTRY_SAMPLE,
    FlightRecorder,
    StallWatchdog,
)
from repro.observability.live import MetricsPublisher
from repro.observability.server import ObservabilityServer
from repro.sim.resources import Store
from repro.wrappers.delays import DelayModel
from repro.wrappers.source import Wrapper

#: a real batch source: an async iterator of tuple counts.
BatchSource = AsyncIterator[int]


class LiveWrapper(Wrapper):
    """One real (async) source feeding the mediator.

    The modelled :class:`Wrapper`'s state — its counters, its ``error``
    — with its production run for real: an :mod:`asyncio` task,
    :meth:`_feed`, pulls batches into a capacity-2 ``outbound`` store
    (the modelled source's pipeline depth) and a kernel process,
    :meth:`_send`, ships them.  Every data batch is one modelled
    message, and the end of the stream is not a message: an async
    iterator only reports exhaustion when asked for the *next* batch,
    too late to flag the last message, so the stream ends with the
    sender's ``cm.close``.
    """

    def __init__(self, kernel: AsyncioKernel, name: str, cm: Any,
                 source: BatchSource):
        self._bind(kernel, name, cm)
        self._source = source
        self._task: Optional[asyncio.Task[None]] = None

    def _spawn(self) -> Process:
        self.outbound = Store(self.sim, capacity=2,
                              name=f"outbound:{self.name}")
        sender = self.sim.process(self._send(), name=f"live:{self.name}")
        self._task = asyncio.ensure_future(self._feed())
        return sender

    def _send(self) -> Generator[SimEvent, Any, None]:
        """Kernel side: ship each ``(count, production)`` message the
        feeder queues through the window protocol until the end marker."""
        outbound = self.outbound
        while True:
            message = yield outbound.get()
            if message is None:
                yield from self.cm.close(self.name)
                break
            count, production = message
            yield from self.cm.deliver(self.name, count, eof=False,
                                       production_seconds=production)
            self.tuples_sent += count
        self.finished_at = self.sim.now

    def stop(self) -> None:
        """Cancel the feeder task (used on engine failure paths)."""
        super().stop()
        if self._task is not None and not self._task.done():
            self._task.cancel()

    async def _feed(self) -> None:
        """asyncio side: pull batches, time their production, queue each
        as one message.

        The next batch is pulled while the previous ones are still on
        their way through ``deliver``, as the modelled producer keeps
        producing into ``outbound``; once that holds two messages the
        source is left suspended, so the window protocol still slows a
        producer down.

        A batch's production time is the time spent inside the source,
        from asking for the batch to getting it.  Time spent waiting for
        room in ``outbound`` is the mediator's doing and is kept out of
        it, or the rate estimator would read a back-pressured source as
        a slow one.
        """
        loop = asyncio.get_running_loop()
        clock, outbound = loop.time, self.outbound
        try:
            asked = clock()
            async for count in self._source:
                got = clock()
                self.production_time += got - asked
                message = (int(count), got - asked)
                if not outbound.try_put(message):
                    room: asyncio.Future[None] = loop.create_future()

                    def admitted(_event: SimEvent) -> None:
                        if not room.done():  # not cancelled meanwhile
                            room.set_result(None)

                    outbound.put(message).add_callback(admitted)
                    await room
                asked = clock()
                self.blocked_time += asked - got
        except Exception as exc:
            self.error = caught(exc)
        finally:
            # Also on cancellation: the sender must end the stream, or it
            # would stay parked on a kernel that outlives this query.
            if not outbound.try_put(None):
                outbound.put(None)

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
    """Runs one query with one strategy on the wall clock.

    :class:`repro.core.engine.QueryEngine`'s arguments and stack — the
    same DQO / DQS / DQP, mediator, telemetry and modelled wrappers over
    ``delay_models``, drawing from the same seeded streams — on an
    :class:`AsyncioKernel`, so a run takes its response time in real
    seconds and reports what the virtual-time run does.  (Real async
    sources run under a :class:`~repro.core.engine.QueryRun` over
    :func:`live_wrappers`.)

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
                 delay_models: Mapping[str, DelayModel],
                 params: Optional[SimulationParameters] = None,
                 seed: int = 0,
                 serve_port: Optional[int] = None,
                 serve_host: str = "127.0.0.1",
                 flight_dump: Optional[Union[str, Path]] = None,
                 span_dump: Optional[Union[str, Path]] = None,
                 stall_after: Optional[float] = None,
                 deadline: Optional[float] = None,
                 on_serve: Optional[Callable[[ObservabilityServer], None]] = None):
        from repro.core.engine import QueryEngine

        #: the same query in virtual time; it checks the arguments.
        self.engine = QueryEngine(catalog, qep, policy, delay_models,
                                  params=params, seed=seed)
        if (stall_after is not None or deadline is not None) \
                and flight_dump is None:
            raise ConfigurationError(
                "stall_after/deadline need a flight_dump path to dump to")
        self.serve_port = serve_port
        self.serve_host = serve_host
        self.flight_dump = Path(flight_dump) if flight_dump is not None else None
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
        from repro.core.engine import QueryRun, seeded_wrappers
        from repro.core.runtime import World

        spec = self.engine
        kernel = AsyncioKernel()
        world = World(spec.params, seed=spec.seed, kernel=kernel)
        recorder = None
        if self.flight_dump is not None:
            recorder = self.recorder = FlightRecorder().attach(
                world.telemetry)
        if self.span_dump is not None and world.telemetry.spans is None:
            # Arm the recorder before the DQP is built so its compiled
            # hook table includes the span callables.
            from repro.observability.spans import SpanRecorder
            world.telemetry.spans = SpanRecorder(kernel)
        publisher = None
        if self.serve_port is not None:
            publisher = self.publisher = MetricsPublisher()
            self.server = await ObservabilityServer(
                publisher, host=self.serve_host, port=self.serve_port).start()
            if self.on_serve is not None:
                self.on_serve(self.server)

        query = QueryRun(world, spec.qep, spec.policy,
                         seeded_wrappers(world, spec.catalog,
                                         spec.delay_models))
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
            # could not be built): siblings started before it are stopped.
            if watchdog is not None:
                watchdog.stop()
            if self.span_dump is not None \
                    and world.telemetry.spans is not None:
                # Written on success *and* failure, like the flight dump.
                world.telemetry.spans.write_json(self.span_dump)
            query.detach()
            if publisher is not None:
                if query.attached:
                    publisher.publish(query.snapshot())  # final /stream state
                publisher.close()
            if self.server is not None:
                await self.server.stop()
                self.server = None

        return query.result()
