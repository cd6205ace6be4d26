"""Tests for the LRU page cache and statistics collectors."""

import pytest

from repro.common.errors import SimulationError
from repro.sim import Counter, LRUPageCache, TimeWeightedStat, WelfordStat


# --------------------------------------------------------------------------
# LRUPageCache
# --------------------------------------------------------------------------

def test_cache_hit_after_insert():
    cache = LRUPageCache(4)
    cache.insert(1, 0)
    assert cache.lookup(1, 0)
    assert cache.hits.value == 1


def test_cache_miss_counts():
    cache = LRUPageCache(4)
    assert not cache.lookup(1, 0)
    assert cache.misses.value == 1


def test_cache_evicts_lru():
    cache = LRUPageCache(2)
    cache.insert(1, 0)
    cache.insert(1, 1)
    evicted = cache.insert(1, 2)
    assert evicted == (1, 0)
    assert not cache.lookup(1, 0)
    assert cache.lookup(1, 1)


def test_cache_lookup_refreshes_recency():
    cache = LRUPageCache(2)
    cache.insert(1, 0)
    cache.insert(1, 1)
    cache.lookup(1, 0)          # page 0 becomes most recent
    evicted = cache.insert(1, 2)
    assert evicted == (1, 1)


def test_cache_reinsert_is_not_eviction():
    cache = LRUPageCache(2)
    cache.insert(1, 0)
    assert cache.insert(1, 0) is None
    assert len(cache) == 1


def test_cache_invalidate_extent():
    cache = LRUPageCache(8)
    for page in range(3):
        cache.insert(1, page)
    cache.insert(2, 0)
    assert cache.invalidate_extent(1) == 3
    assert len(cache) == 1


def test_cache_hit_ratio():
    cache = LRUPageCache(4)
    cache.insert(1, 0)
    cache.lookup(1, 0)
    cache.lookup(1, 1)
    assert cache.hit_ratio() == pytest.approx(0.5)


def test_cache_capacity_validation():
    with pytest.raises(SimulationError):
        LRUPageCache(0)


# --------------------------------------------------------------------------
# Counter / WelfordStat / TimeWeightedStat
# --------------------------------------------------------------------------

def test_counter_accumulates():
    counter = Counter()
    counter.add(3)
    counter.add()
    assert counter.value == 4


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        Counter().add(-1)


def test_welford_mean_and_variance():
    stat = WelfordStat()
    for value in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]:
        stat.record(value)
    assert stat.mean == pytest.approx(5.0)
    assert stat.variance == pytest.approx(32.0 / 7.0)
    assert stat.minimum == 2.0
    assert stat.maximum == 9.0


def test_welford_empty_is_zero():
    stat = WelfordStat()
    assert stat.mean == 0.0
    assert stat.variance == 0.0


def test_welford_single_sample():
    stat = WelfordStat()
    stat.record(3.5)
    assert stat.mean == 3.5
    assert stat.variance == 0.0


def test_time_weighted_mean(sim):
    stat = TimeWeightedStat(sim)
    stat.record(10.0)        # value 10 from t=0
    sim.timeout(4.0)
    sim.run()
    stat.record(20.0)        # value 20 from t=4
    sim.timeout(4.0)
    sim.run()
    # 10 held for 4s, 20 held for 4s -> mean 15.
    assert stat.mean() == pytest.approx(15.0)


def test_time_weighted_empty(sim):
    assert TimeWeightedStat(sim).mean() == 0.0

