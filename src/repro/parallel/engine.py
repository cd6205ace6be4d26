"""The sweep runner: shard independent runs across processes, cache results.

:class:`SweepRunner` is the single entry point the sweep drivers and the
CLI use.  Given an ordered list of specs (:class:`~repro.parallel.spec.
RunSpec` / :class:`~repro.parallel.spec.MultiQuerySpec`, or anything with
the same four-method surface) it:

1. serves every spec it can from the :class:`~repro.parallel.cache.
   RunCache` (content-addressed, corruption-tolerant);
2. executes the misses — inline when ``jobs == 1``, else sharded over a
   :class:`~concurrent.futures.ProcessPoolExecutor`;
3. stores fresh results back into the cache;
4. returns results **in spec order**, regardless of which worker
   finished first or which spec was a hit — a parallel or cached sweep
   is positionally identical to a serial one.

Determinism: each run rebuilds its own ``World`` from its own seed, so a
run's result does not depend on which process computed it or on what ran
before it.  The serial/parallel/cached equality is pinned by
``tests/test_parallel_determinism.py`` and the golden-snapshot suite.

One asymmetry to be aware of: the inline path returns the engine's full
result object (including in-process extras like the runtime-statistics
object), while pool- and cache-served results carry exactly the measured
payload of :mod:`repro.parallel.results`.  Every metric a sweep reads is
identical either way.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Optional, Protocol, Sequence

from repro.common.errors import ConfigurationError
from repro.observability import MetricsRegistry
from repro.parallel.cache import RunCache


class Spec(Protocol):
    """What SweepRunner needs from a run description."""

    def cache_key(self) -> str: ...
    def execute(self) -> Any: ...
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
    #: cross-run telemetry: every result's metrics registry (inline,
    #: pool-shipped or cache-served) is merged in here, so a sweep's
    #: aggregate counters survive the process boundary.
    merged_metrics: MetricsRegistry = field(
        default_factory=lambda: MetricsRegistry(enabled=True))

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
        results: list[Any] = [None] * len(specs)
        keys: list[Optional[str]] = [None] * len(specs)
        pending: list[int] = []

        if self.cache is not None:
            for i, spec in enumerate(specs):
                key = spec.cache_key()
                keys[i] = key
                payload = self.cache.load(key)
                if payload is not None:
                    results[i] = spec.result_from_payload(payload["result"])
                    self._merge_telemetry(results[i])
                    stats.cache_hits += 1
                else:
                    pending.append(i)
        else:
            pending = list(range(len(specs)))

        if not pending:
            return results

        if self.jobs == 1 or len(pending) == 1:
            for i in pending:
                result = specs[i].execute()
                results[i] = result
                self._merge_telemetry(result)
                self._store(specs[i], keys[i], result)
                stats.executed_inline += 1
        else:
            workers = min(self.jobs, len(pending))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                payloads = pool.map(_execute_payload,
                                    [specs[i] for i in pending])
                for i, payload in zip(pending, payloads):
                    results[i] = specs[i].result_from_payload(payload)
                    self._merge_telemetry(results[i])
                    if self.cache is not None and keys[i] is not None:
                        self.cache.store(keys[i], {"result": payload})
                        stats.stored += 1
                    stats.executed_pool += 1
        return results

    def _merge_telemetry(self, result: Any) -> None:
        """Fold one result's metrics registry into :attr:`merged_metrics`.

        Results from telemetry-disabled runs (``metrics is None``) and
        multi-query results (no ``metrics`` attribute) merge nothing.
        """
        metrics = getattr(result, "metrics", None)
        if metrics is not None:
            self.merged_metrics.merge(metrics)

    def _store(self, spec: Spec, key: Optional[str], result: Any) -> None:
        if self.cache is None or key is None:
            return
        # Re-flatten through the payload layer so a cache-served result
        # is byte-identical to what a pool worker would have shipped.
        if hasattr(result, "outcomes"):
            from repro.parallel.results import multiquery_result_to_payload
            payload = multiquery_result_to_payload(result)
        else:
            from repro.parallel.results import result_to_payload
            payload = result_to_payload(result)
        self.cache.store(key, {"result": payload})
        self.stats.stored += 1
