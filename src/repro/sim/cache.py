"""LRU page cache (the paper's 8-page I/O cache, Table 1).

The cache maps ``(extent, page)`` keys to resident pages.  The buffer
manager consults it before issuing disk reads and inserts pages after
reads and writes; with only 8 pages it mostly provides write-behind
clustering and read-ahead reuse within a chunk.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.common.errors import SimulationError
from repro.sim.stats import Counter

PageKey = tuple[int, int]


class LRUPageCache:
    """Fixed-capacity LRU cache of page identities (contents are never real)."""

    def __init__(self, capacity_pages: int):
        if capacity_pages < 1:
            raise SimulationError(f"cache needs >= 1 page, got {capacity_pages}")
        self.capacity_pages = capacity_pages
        self._pages: OrderedDict[PageKey, None] = OrderedDict()
        self.hits = Counter()
        self.misses = Counter()

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, key: PageKey) -> bool:
        return key in self._pages

    def lookup(self, extent: int, page: int) -> bool:
        """Check residency, update recency, and count hit/miss."""
        key = (extent, page)
        if key in self._pages:
            self._pages.move_to_end(key)
            self.hits.add(1)
            return True
        self.misses.add(1)
        return False

    def insert(self, extent: int, page: int) -> Optional[PageKey]:
        """Insert a page; returns the evicted key, if an eviction occurred."""
        key = (extent, page)
        evicted = None
        if key in self._pages:
            self._pages.move_to_end(key)
            return None
        if len(self._pages) >= self.capacity_pages:
            evicted, _ = self._pages.popitem(last=False)
        self._pages[key] = None
        return evicted

    def invalidate_extent(self, extent: int) -> int:
        """Drop every page of ``extent`` (e.g. when a temp is destroyed)."""
        doomed = [key for key in self._pages if key[0] == extent]
        for key in doomed:
            del self._pages[key]
        return len(doomed)

    def hit_ratio(self) -> float:
        """Fraction of lookups that hit; 0 when no lookups happened."""
        total = self.hits.value + self.misses.value
        return self.hits.value / total if total else 0.0

    def __repr__(self) -> str:
        return (f"LRUPageCache({len(self._pages)}/{self.capacity_pages} pages, "
                f"hit_ratio={self.hit_ratio():.2f})")
