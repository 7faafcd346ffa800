"""The result cache's per-label index against the re-keying cache it
replaced.

The cache stores entries by query (a :class:`CacheKey` minus its epoch)
and deletes, on a label-targeted bump, exactly the entries its per-label
index finds over a touched label.  The model below is the earlier
implementation, which stored entries under their full key and re-keyed
every survivor into the new epoch on each bump.  Both must answer every
lookup alike and keep every counter alike.
"""

from __future__ import annotations

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import ResultCache
from repro.service.cache import CacheKey, CacheStats

# few queries, so that sequences revisit them: six label-set and
# lambda pairs, and bumps over those labels and one no entry carries
LABELS = ("a", "b")


class RekeyedCache:
    """The cache's contract as the re-keying implementation kept it."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.entries: "OrderedDict[CacheKey, int]" = OrderedDict()
        self.epoch = 0
        self.stats = CacheStats()

    def bump_epoch(self, labels=None) -> int:
        self.epoch += 1
        if labels is None:
            stale = len(self.entries)
            self.entries.clear()
        else:
            affected = frozenset(labels)
            stale = 0
            survivors: "OrderedDict[CacheKey, int]" = OrderedDict()
            for key, value in self.entries.items():
                touched = affected.intersection(key.labels)
                if touched:
                    stale += 1
                    for label in touched:
                        by_label = self.stats.invalidations_by_label
                        by_label[label] = by_label.get(label, 0) + 1
                else:
                    survivors[key._replace(epoch=self.epoch)] = value
            self.entries = survivors
            self.stats.carried_forward += len(survivors)
        self.stats.invalidations += stale
        return self.epoch

    def get(self, key: CacheKey):
        value = self.entries.get(key) if key.epoch == self.epoch else None
        if value is None:
            self.stats.misses += 1
            return None
        self.entries.move_to_end(key)
        self.stats.hits += 1
        return value

    def put(self, key: CacheKey, value: int) -> bool:
        if key.epoch != self.epoch:
            self.stats.stale_drops += 1
            return False
        self.entries[key] = value
        self.entries.move_to_end(key)
        while len(self.entries) > self.capacity:
            self.entries.popitem(last=False)
            self.stats.evictions += 1
        return True

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self.entries


label_sets = st.sets(st.sampled_from(LABELS), min_size=1).map(
    lambda labels: tuple(sorted(labels))
)
# a lookup or a publish for one query, at the current epoch or, with
# lag 1, at the one before it (a key a caller held across a bump)
query_ops = st.tuples(
    st.sampled_from(("put", "get")),
    label_sets,
    st.sampled_from((1.0, 2.0)),
    st.sampled_from((0, 0, 0, 0, 0, 1)),
)
bump_ops = st.tuples(
    st.just("bump"), st.sets(st.sampled_from(LABELS + ("c",))),
)
purge_ops = st.tuples(st.just("purge"))


# mostly lookups and publishes: a bump deletes, and a purge clears,
# the state that LRU order and the index act on
any_op = st.sampled_from(
    (query_ops,) * 12 + (bump_ops,) * 2 + (purge_ops,)
).flatmap(lambda ops: ops)


@settings(max_examples=400, deadline=None)
@given(
    capacity=st.integers(1, 4),
    ops=st.lists(any_op, min_size=10, max_size=60),
)
def test_the_label_index_keeps_the_re_keying_contract(capacity, ops):
    cache, model = ResultCache(capacity=capacity), RekeyedCache(capacity)
    for step, op in enumerate(ops):
        if op[0] == "bump":
            assert cache.bump_epoch("ingest", labels=op[1]) == \
                model.bump_epoch(op[1])
        elif op[0] == "purge":
            assert cache.bump_epoch("restore") == model.bump_epoch(None)
        else:
            kind, labels, lam, lag = op
            key = CacheKey(max(0, model.epoch - lag), labels, lam,
                           "greedy_sc", "time")
            if kind == "put":
                assert cache.put(key, step) == model.put(key, step)
            else:
                assert cache.get(key) == model.get(key)
            assert (key in cache) == (key in model)
        assert len(cache) == len(model)
        assert cache.epoch == model.epoch
        assert cache.stats.as_dict() == model.stats.as_dict()


def test_a_no_label_bump_keeps_every_entry_for_the_new_epoch():
    cache = ResultCache(capacity=256)
    queries = [((f"q{k % 5}",), float(k)) for k in range(256)]
    for labels, lam in queries:
        cache.put(cache.key_for(labels, lam, "greedy_sc", "time"), lam)
    assert cache.bump_epoch("off-topic ingest", labels=set()) == 1
    assert len(cache) == 256
    for labels, lam in queries:
        key = cache.key_for(labels, lam, "greedy_sc", "time")
        assert key.epoch == 1
        assert cache.get(key) == lam
    assert cache.stats.hits == 256
    assert cache.stats.invalidations == 0
    assert cache.stats.carried_forward == 256


def test_a_label_bump_leaves_no_index_entry_behind():
    cache = ResultCache(capacity=2)
    for labels, lam in ((("a",), 1.0), (("a", "b"), 2.0), (("c",), 3.0)):
        cache.put(cache.key_for(labels, lam, "scan", "time"), lam)
    # the first put was evicted, and its query left the index with it
    assert set(cache._by_label) == {"a", "b", "c"}
    cache.bump_epoch("ingest", labels={"b"})
    assert set(cache._by_label) == {"c"}
    assert cache.stats.invalidations_by_label == {"b": 1}
    cache.bump_epoch("restore")
    assert cache._by_label == {} and len(cache) == 0


def test_a_lookup_at_another_horizon_misses_and_drops_the_entry():
    cache = ResultCache()
    key = cache.key_for(("a",), 1.0, "scan", "time")
    asked = []

    def horizon(value):
        return lambda: asked.append(value) or value

    # no entry, so the lookup's horizon is never read
    assert cache.get(key, horizon(170.0)) is None and asked == []
    assert cache.put(key, "digest", 170.0)
    assert cache.get(key, horizon(170.0)) == "digest"
    # the window slid under the entry with no write on its labels
    assert cache.get(key, horizon(185.0)) is None
    assert asked == [170.0, 185.0]
    assert len(cache) == 0 and cache._by_label == {}
    assert (cache.stats.hits, cache.stats.misses) == (1, 2)
    assert cache.stats.invalidations == 0
