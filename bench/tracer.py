"""In-memory span tracer wrapped around the program from the outside.

The benchmark never edits ``src/repro``: for a traced run it replaces the
public entry points listed in :mod:`trace_targets` with timing proxies
and drives every kernel process through one, so each host second of the
run is billed to exactly one target.

Accounting is a frame stack.  ``enter`` pushes a frame, ``exit`` pops it
and adds the elapsed time to the target's *busy* time, the elapsed time
minus what its children took to its *self* time, and the elapsed time to
the parent frame's children.  Generators and coroutines (kernel
processes, ``yield from`` helpers, ``AsyncioKernel.run``) are driven step
by step, one frame per resumption, so time a process spends suspended is
never billed to it.  Everything runs on one thread — the simulator and
the asyncio loop are both single-threaded — so frames nest properly and
the self times of all targets sum to the busy time of the outermost
frames by construction.
"""

from __future__ import annotations

import importlib
import inspect
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

clock = time.perf_counter

#: coarse spans kept per traced run; calls past the cap are still
#: aggregated, only their individual span records are dropped.
MAX_SPANS = 250_000


@dataclass(frozen=True)
class Target:
    """One program entry point the traced run wraps.

    ``name`` is ``module:Qualified.attr``; ``metric`` is the per-layer
    metric the target's self time is billed to.  ``coarse`` targets get
    one span record per call; the others are only aggregated per
    ``(parent, target)``.  ``count_attr`` names a public attribute read
    off the bound instance when the call ends and summed under
    ``count_metric`` (e.g. ``Simulator.processed_events``).
    """

    name: str
    metric: str
    coarse: bool = False
    count_attr: Optional[str] = None
    count_metric: Optional[str] = None


@dataclass
class Stat:
    """Aggregate of one ``(parent, target)`` edge."""

    steps: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Frame stack, per-edge aggregates and coarse span records."""

    #: active frames, innermost last: [target name, span id, started, child_s]
    frames: List[List[Any]] = field(default_factory=list)
    stats: Dict[Tuple[Optional[str], str], Stat] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    dropped_spans: int = 0
    #: run or submission the current work belongs to (set by the harness
    #: per simulated run and by process proxies named after a submission).
    run_id: Optional[str] = None

    # -- frames --------------------------------------------------------------
    def open(self, target: Target) -> Optional[int]:
        """Count one call; returns the span id of a coarse target."""
        name = target.name
        self.calls[name] = self.calls.get(name, 0) + 1
        if not target.coarse:
            return None
        if len(self.spans) >= MAX_SPANS:
            self.dropped_spans += 1
            return None
        parent = None
        for frame in reversed(self.frames):
            if frame[1] is not None:
                parent = frame[1]
                break
        self.spans.append({"id": len(self.spans), "name": name,
                           "start": None, "end": None, "busy_s": 0.0,
                           "parent": parent, "run": self.run_id})
        return len(self.spans) - 1

    def enter(self, name: str, span_id: Optional[int]) -> None:
        self.frames.append([name, span_id, clock(), 0.0])

    def exit(self) -> None:
        name, span_id, started, child_s = self.frames.pop()
        elapsed = clock() - started
        parent = None
        if self.frames:
            outer = self.frames[-1]
            outer[3] += elapsed
            parent = outer[0]
        stat = self.stats.get((parent, name))
        if stat is None:
            stat = self.stats[(parent, name)] = Stat()
        stat.steps += 1
        stat.busy_s += elapsed
        stat.self_s += elapsed - child_s
        if span_id is not None:
            span = self.spans[span_id]
            if span["start"] is None:
                span["start"] = started
            span["end"] = started + elapsed
            span["busy_s"] += elapsed

    def finish(self, target: Target, bound: Any) -> None:
        """A call of ``target`` ended; harvest its instance counter."""
        if target.count_attr is not None and target.count_metric is not None:
            value = getattr(bound, target.count_attr, None)
            if isinstance(value, int):
                self.counters[target.count_metric] = (
                    self.counters.get(target.count_metric, 0) + value)

    # -- proxies -------------------------------------------------------------
    def drive(self, inner: Any, target: Target, span_id: Optional[int],
              bound: Any = None, run_id: Optional[str] = None
              ) -> Iterator[Any]:
        """Drive a generator (or ``coro.__await__()``) one timed frame
        per resumption, forwarding sends, throws and the return value.

        With ``run_id`` every resumption runs under that run label, so
        spans opened inside a process carry the submission it serves.
        """
        name = target.name
        value: Any = None
        thrown: Optional[BaseException] = None
        try:
            while True:
                outer_run = self.run_id
                if run_id is not None:
                    self.run_id = run_id
                self.enter(name, span_id)
                try:
                    if thrown is None:
                        item = inner.send(value)
                    else:
                        item = inner.throw(thrown)
                except StopIteration as stop:
                    return stop.value
                finally:
                    self.exit()
                    self.run_id = outer_run
                thrown = None
                try:
                    value = yield item
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as exc:  # forwarded into ``inner``
                    thrown = exc
        finally:
            self.finish(target, bound)

    def wrap(self, fn: Callable[..., Any], target: Target) -> Callable[..., Any]:
        """A timing proxy for ``fn``: coroutine function, generator
        function or plain callable, chosen by inspection."""
        tracer = self

        if inspect.iscoroutinefunction(fn):
            async def traced_coroutine(*args: Any, **kwargs: Any) -> Any:
                span_id = tracer.open(target)
                bound = args[0] if args else None
                return await _Driven(
                    tracer, fn(*args, **kwargs), target, span_id, bound)
            return traced_coroutine

        if inspect.isgeneratorfunction(fn):
            def traced_generator(*args: Any, **kwargs: Any) -> Any:
                span_id = tracer.open(target)
                bound = args[0] if args else None
                return tracer.drive(fn(*args, **kwargs), target, span_id,
                                    bound)
            return traced_generator

        def traced_call(*args: Any, **kwargs: Any) -> Any:
            span_id = tracer.open(target)
            tracer.enter(target.name, span_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()
                tracer.finish(target, args[0] if args else None)
        return traced_call

    def reset_aggregates(self) -> None:
        """Forget everything aggregated so far (a warm-up ended).  Open
        frames and span records stay, so running proxies are unaffected."""
        self.stats = {}
        self.calls = {}
        self.counters = {}

    def frozen(self) -> "Tracer":
        """A copy of the aggregates as of now (a measured window ended
        while the program keeps running)."""
        return Tracer(
            stats={key: Stat(stat.steps, stat.busy_s, stat.self_s)
                   for key, stat in self.stats.items()},
            calls=dict(self.calls), counters=dict(self.counters))

    # -- results -------------------------------------------------------------
    def self_by_metric(self, targets: Dict[str, Target]) -> Dict[str, float]:
        """Self seconds per per-layer metric (summed over its targets)."""
        totals: Dict[str, float] = {}
        for (_parent, name), stat in self.stats.items():
            metric = targets[name].metric
            totals[metric] = totals.get(metric, 0.0) + stat.self_s
        return totals

    def counts(self, call_counts: Dict[str, str]) -> Dict[str, int]:
        """Every count the aggregates hold, by per-layer metric name:
        calls of the targets in ``call_counts``, the instance counters,
        and process resumptions."""
        counts = {metric: self.calls.get(target, 0)
                  for metric, target in call_counts.items()}
        counts.update(self.counters)
        counts["exec.process_resumptions"] = sum(
            stat.steps for (_parent, name), stat in self.stats.items()
            if name.startswith("process:"))
        return counts

    def busy(self, name: str) -> float:
        """Inclusive busy seconds of one target over every parent."""
        return sum(stat.busy_s for (_parent, target), stat
                   in self.stats.items() if target == name)

    def root_busy(self) -> float:
        """Busy seconds of the outermost frames (what self times sum to)."""
        return sum(stat.busy_s for (parent, _name), stat
                   in self.stats.items() if parent is None)

    def aggregates(self) -> List[Dict[str, Any]]:
        return [{"parent": parent, "name": name, "steps": stat.steps,
                 "busy_s": stat.busy_s, "self_s": stat.self_s}
                for (parent, name), stat in sorted(
                    self.stats.items(), key=lambda kv: -kv[1].self_s)]


class _Driven:
    """Awaitable driving a coroutine through :meth:`Tracer.drive`."""

    def __init__(self, tracer: Tracer, coroutine: Any, target: Target,
                 span_id: Optional[int], bound: Any) -> None:
        self._args = (tracer, coroutine, target, span_id, bound)

    def __await__(self) -> Iterator[Any]:
        tracer, coroutine, target, span_id, bound = self._args
        return tracer.drive(coroutine.__await__(), target, span_id, bound)


def resolve(dotted: str) -> Tuple[Any, str, Any]:
    """``module:Qualified.attr`` -> (owner, attribute name, raw attribute).

    Raises ``ImportError``/``AttributeError`` when the program no longer
    has the name; the caller records it as unresolved.
    """
    module_name, _, qualified = dotted.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualified.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, inspect.getattr_static(owner, attr)


class Installation:
    """The proxies of one traced run; ``apply`` swaps them in, ``restore``
    puts the program's own attributes back."""

    def __init__(self, tracer: Tracer, targets: List[Target],
                 process_targets: List[Tuple[str, Target]],
                 other_process: Target,
                 harness_frames: Sequence[Target] = ()) -> None:
        self.tracer = tracer
        self.targets: Dict[str, Target] = {}
        self.unresolved: List[str] = []
        #: (owner, attribute, original, proxy) of every applied patch.
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        for target in targets:
            self.targets[target.name] = target
            try:
                owner, attr, raw = resolve(target.name)
            except (ImportError, AttributeError):
                self.unresolved.append(target.name)
                continue
            self._patch(owner, attr, raw, target)
        for _prefix, target in process_targets:
            self.targets[target.name] = target
        for target in (other_process, *harness_frames):
            self.targets[target.name] = target
        self._patch_process(process_targets, other_process)

    def _patch(self, owner: Any, attr: str, raw: Any, target: Target) -> None:
        tracer = self.tracer
        if isinstance(raw, property):
            assert raw.fget is not None
            replacement: Any = property(tracer.wrap(raw.fget, target),
                                        raw.fset, raw.fdel, raw.__doc__)
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(tracer.wrap(raw.__func__, target))
        else:
            replacement = tracer.wrap(raw, target)
        self._patches.append((owner, attr, raw, replacement))

    def _patch_process(self, process_targets: List[Tuple[str, Target]],
                       other: Target) -> None:
        """Drive every kernel process through a proxy billed by the
        prefix of its process name."""
        tracer = self.tracer
        try:
            owner, attr, raw = resolve("repro.exec.core:KernelBase.process")
        except (ImportError, AttributeError):
            self.unresolved.append("repro.exec.core:KernelBase.process")
            return

        def traced_process(kernel: Any, generator: Any, name: str = "") -> Any:
            target = other
            for prefix, candidate in process_targets:
                if name.startswith(prefix):
                    target = candidate
                    break
            # A launcher process names its submission; whatever it
            # spawns (engine, pumps, temp I/O) inherits that label.
            run_id = (name.partition(":")[2] if name.startswith("query:")
                      else tracer.run_id)
            proxy = tracer.drive(generator, target, tracer.open(target),
                                 run_id=run_id)
            return raw(kernel, proxy, name=name)

        self._patches.append((owner, attr, raw, traced_process))

    def apply(self) -> None:
        for owner, attr, _raw, proxy in self._patches:
            setattr(owner, attr, proxy)

    def restore(self) -> None:
        for owner, attr, raw, _proxy in reversed(self._patches):
            setattr(owner, attr, raw)
