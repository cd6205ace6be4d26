"""The sweep runner: shard independent runs across processes, cache results.

:class:`SweepRunner` is the single entry point the sweep drivers and the
CLI use.  Given an ordered list of specs (:class:`~repro.parallel.spec.
RunSpec` / :class:`~repro.parallel.spec.MultiQuerySpec`, or anything with
the same three-method surface) it:

1. serves every spec it can from the :class:`~repro.parallel.cache.
   RunCache` (content-addressed, corruption-tolerant);
2. executes the misses — inline when ``jobs == 1``, else sharded over a
   :class:`~concurrent.futures.ProcessPoolExecutor` — each one as the
   payload of :mod:`repro.parallel.results`;
3. stores fresh payloads back into the cache;
4. rebuilds every result from its payload and returns them **in spec
   order**, regardless of which worker finished first or which spec was
   a hit — a parallel or cached sweep is identical to a serial one.

Determinism: each run rebuilds its own ``World`` from its own seed, so a
run's result does not depend on which process computed it or on what ran
before it.  The serial/parallel/cached equality is pinned by
``tests/test_parallel_determinism.py`` and the golden-snapshot suite.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Protocol, Sequence

from repro.common.errors import ConfigurationError
from repro.parallel.cache import RunCache


class Spec(Protocol):
    """What SweepRunner needs from a run description."""

    def cache_key(self) -> str: ...
    def execute_payload(self) -> dict[str, Any]: ...
    @staticmethod
    def result_from_payload(payload: dict[str, Any]) -> Any: ...


def _execute_payload(spec: Spec) -> dict[str, Any]:
    """Module-level worker entry point (must be picklable)."""
    return spec.execute_payload()


def default_jobs() -> int:
    """Worker count for ``--jobs 0`` ("use the machine"): one per core."""
    return max(1, os.cpu_count() or 1)


@dataclass
class SweepStats:
    """What one :meth:`SweepRunner.run` call did, for logs and tests."""

    total: int = 0
    cache_hits: int = 0
    executed_inline: int = 0
    executed_pool: int = 0
    stored: int = 0


@dataclass
class SweepRunner:
    """Shards independent runs across processes with an optional cache."""

    #: worker processes; 1 = serial (in-process), 0 = one per core.
    jobs: int = 1
    #: cache directory; None disables caching entirely.
    cache_dir: "str | os.PathLike[str] | None" = None
    #: gate for ``--no-cache``: keep the directory configured but bypass it.
    use_cache: bool = True
    stats: SweepStats = field(default_factory=SweepStats)

    def __post_init__(self) -> None:
        if self.jobs == 0:
            self.jobs = default_jobs()
        if self.jobs < 1:
            raise ConfigurationError(
                f"jobs must be >= 1 (or 0 = auto), got {self.jobs}")
        self.cache: Optional[RunCache] = (
            RunCache(self.cache_dir)
            if self.cache_dir is not None and self.use_cache else None)

    def run(self, specs: Sequence[Spec]) -> list[Any]:
        """Execute every spec; results returned in spec order."""
        stats = self.stats
        stats.total += len(specs)
        payloads: list[Optional[dict[str, Any]]] = [None] * len(specs)
        keys: list[Optional[str]] = [None] * len(specs)
        pending: list[int] = []

        if self.cache is not None:
            for i, spec in enumerate(specs):
                key = spec.cache_key()
                keys[i] = key
                entry = self.cache.load(key)
                if entry is not None:
                    payloads[i] = entry["result"]
                    stats.cache_hits += 1
                else:
                    pending.append(i)
        else:
            pending = list(range(len(specs)))

        todo = [specs[i] for i in pending]
        workers = min(self.jobs, len(todo))
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                self._collect(pending, pool.map(_execute_payload, todo),
                              keys, payloads)
            stats.executed_pool += len(todo)
        else:
            self._collect(pending, map(_execute_payload, todo),
                          keys, payloads)
            stats.executed_inline += len(todo)
        return [spec.result_from_payload(payload)
                for spec, payload in zip(specs, payloads)]

    def _collect(self, pending: list[int], fresh: Iterable[dict[str, Any]],
                 keys: list[Optional[str]],
                 payloads: list[Optional[dict[str, Any]]]) -> None:
        """Place each fresh payload at its spec's index and cache it."""
        for i, payload in zip(pending, fresh):
            payloads[i] = payload
            if self.cache is not None and keys[i] is not None:
                self.cache.store(keys[i], {"result": payload})
                self.stats.stored += 1
