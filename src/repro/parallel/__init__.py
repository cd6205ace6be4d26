"""Parallel experiment engine: sweep sharding and a run cache.

Every figure and ablation of the reproduction is a sweep of *independent*
seeded simulations, so the package exploits the two classic levers for
such workloads:

* **sharding** — :class:`SweepRunner` fans ``(config, strategy, seed)``
  runs out over a :class:`~concurrent.futures.ProcessPoolExecutor` with
  deterministic result ordering (each run builds its own ``World`` from
  its own seed, so results are bit-identical to a serial execution);
* **reuse** — :class:`RunCache` is a content-addressed on-disk store
  keyed by a hash of the full run identity (simulation parameters, QEP
  workload, delay models, seed) plus a fingerprint of the source tree,
  so repeated sweeps skip already-computed points.

The sweep drivers under :mod:`repro.experiments` all accept a
``runner=`` argument; the CLI exposes ``--jobs`` / ``--cache-dir`` /
``--no-cache`` on the sweep subcommands.
"""

from typing import TYPE_CHECKING

from repro.lazy import lazy_exports

_EXPORTS = {
    "cache": ("RunCache",),
    "engine": ("SweepRunner", "SweepStats"),
    "fingerprint": ("code_fingerprint",),
    "results": (
        "RESULT_SCHEMA_VERSION", "multiquery_result_from_payload",
        "multiquery_result_to_payload", "result_from_payload",
        "result_to_payload",
    ),
    "spec": (
        "MultiQuerySpec", "RunSpec", "delay_from_spec", "uniform_delay_specs",
    ),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

if TYPE_CHECKING:
    from repro.parallel.cache import RunCache
    from repro.parallel.engine import SweepRunner, SweepStats
    from repro.parallel.fingerprint import code_fingerprint
    from repro.parallel.results import (
        RESULT_SCHEMA_VERSION,
        multiquery_result_from_payload,
        multiquery_result_to_payload,
        result_from_payload,
        result_to_payload,
    )
    from repro.parallel.spec import (
        MultiQuerySpec,
        RunSpec,
        delay_from_spec,
        uniform_delay_specs,
    )
