"""Unit tests for the epoch-keyed result cache."""

from __future__ import annotations

import pytest

from repro.service import ResultCache
from repro.service.cache import CacheKey


def key(cache, labels=("golf",), lam=30.0, algorithm="greedy_sc"):
    return cache.key_for(labels, lam, algorithm, "time")


def test_put_get_round_trip():
    cache = ResultCache()
    k = key(cache)
    assert cache.get(k) is None
    assert cache.put(k, "digest")
    assert cache.get(k) == "digest"
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1


def test_key_for_normalises_labels():
    cache = ResultCache()
    assert key(cache, labels=("b", "a", "a")) == key(cache, labels=("a", "b"))


def test_distinct_parameters_distinct_keys():
    cache = ResultCache()
    base = key(cache)
    assert key(cache, lam=31.0) != base
    assert key(cache, algorithm="scan+") != base
    assert key(cache, labels=("nba",)) != base


def test_bump_epoch_purges_and_unreaches():
    cache = ResultCache()
    k = key(cache)
    cache.put(k, "old")
    assert cache.bump_epoch("ingest") == 1
    assert len(cache) == 0
    assert cache.stats.invalidations == 1
    # the stale key misses even if a caller kept it around
    assert cache.get(k) is None
    # and a fresh key for the same query is a different key
    assert key(cache) != k
    assert key(cache).epoch == 1


def test_put_refuses_dead_epoch_keys():
    """A solve that straddled an invalidation must not resurrect the old
    corpus."""
    cache = ResultCache()
    stale = key(cache)
    cache.bump_epoch("stream-advance")
    assert not cache.put(stale, "stale-digest")
    assert len(cache) == 0


def test_lru_eviction_order():
    cache = ResultCache(capacity=2)
    k1, k2, k3 = (key(cache, lam=float(i)) for i in range(3))
    cache.put(k1, 1)
    cache.put(k2, 2)
    assert cache.get(k1) == 1  # refresh k1; k2 becomes LRU
    cache.put(k3, 3)
    assert cache.get(k2) is None
    assert cache.get(k1) == 1
    assert cache.get(k3) == 3
    assert cache.stats.evictions == 1


def test_hit_rate():
    cache = ResultCache()
    k = key(cache)
    assert cache.hit_rate() == 0.0
    cache.get(k)
    cache.put(k, 1)
    cache.get(k)
    assert cache.hit_rate() == 0.5


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ResultCache(capacity=0)


def test_cache_key_is_hashable_and_value_typed():
    k = CacheKey(0, ("a",), 1.0, "scan", "time")
    assert hash(k) == hash(CacheKey(0, ("a",), 1.0, "scan", "time"))


# -- label-targeted invalidation ---------------------------------------------


def test_label_bump_invalidates_only_touched_entries():
    cache = ResultCache()
    golf = key(cache, labels=("golf",))
    nba = key(cache, labels=("nba",))
    both = key(cache, labels=("golf", "nba"))
    for k, v in ((golf, "g"), (nba, "n"), (both, "gn")):
        cache.put(k, v)
    epoch = cache.bump_epoch("ingest", labels={"golf"})
    assert epoch == 1
    # golf-touching entries are gone — under old or re-derived keys
    assert cache.get(golf) is None
    assert cache.get(key(cache, labels=("golf",))) is None
    assert cache.get(key(cache, labels=("golf", "nba"))) is None
    # the disjoint entry survives, re-keyed to the new epoch
    assert cache.get(key(cache, labels=("nba",))) == "n"
    assert cache.get(nba) is None  # ...but not under its dead key
    assert cache.stats.invalidations == 2
    assert cache.stats.carried_forward == 1
    assert cache.stats.invalidations_by_label == {"golf": 2}


def test_label_bump_counts_each_affected_label():
    cache = ResultCache()
    cache.put(key(cache, labels=("golf", "nba")), "gn")
    cache.put(key(cache, labels=("golf", "tech")), "gt")
    cache.bump_epoch("ingest", labels={"golf", "nba"})
    by_label = cache.stats.invalidations_by_label
    assert by_label == {"golf": 2, "nba": 1}


def test_empty_label_bump_carries_everything():
    cache = ResultCache()
    cache.put(key(cache, labels=("golf",)), "g")
    cache.put(key(cache, labels=("nba",)), "n")
    epoch = cache.bump_epoch("noop-ingest", labels=set())
    assert epoch == 1
    assert cache.stats.invalidations == 0
    assert cache.stats.carried_forward == 2
    assert cache.get(key(cache, labels=("golf",))) == "g"
    assert cache.get(key(cache, labels=("nba",))) == "n"


def test_none_label_bump_purges_everything():
    cache = ResultCache()
    cache.put(key(cache, labels=("golf",)), "g")
    cache.put(key(cache, labels=("nba",)), "n")
    cache.bump_epoch("restore", labels=None)
    assert len(cache) == 0
    assert cache.stats.invalidations == 2
    assert cache.stats.carried_forward == 0
