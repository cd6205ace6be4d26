"""Deterministic random-number streams.

Every stochastic component (one stream per wrapper, one for the query
generator, ...) draws from its own :class:`numpy.random.Generator`, derived
from a single root seed plus a stable string label.  Runs are therefore
reproducible and components are statistically independent: adding a new
consumer never perturbs the draws seen by existing ones.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


def derive_seed(root_seed: int, label: str) -> int:
    """Derive a child seed from ``root_seed`` and a stable ``label``.

    Uses SHA-256 so the mapping is stable across Python versions and runs
    (unlike ``hash()``, which is salted per process).
    """
    digest = hashlib.sha256(f"{root_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RandomStreams:
    """A factory of named, independent, reproducible RNG streams."""

    def __init__(self, root_seed: int = 0):
        self.root_seed = int(root_seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, label: str) -> np.random.Generator:
        """Return the stream for ``label``, creating it on first use.

        Repeated calls with the same label return the *same* generator
        object, so draws continue where they left off.
        """
        if label not in self._streams:
            # Imported where it draws: a process that never draws (the
            # service's coordinator) never loads numpy.
            import numpy as np

            seed = derive_seed(self.root_seed, label)
            self._streams[label] = np.random.default_rng(seed)
        return self._streams[label]

    def __repr__(self) -> str:
        return f"RandomStreams(root_seed={self.root_seed}, streams={sorted(self._streams)})"
