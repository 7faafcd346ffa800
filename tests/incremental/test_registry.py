"""The view registry's LRU bound: at most ``MAX_VIEWS`` views live at
once, and seeding one more evicts the least recently seeded or read."""

from repro.incremental import MAX_VIEWS, PostStore, ViewRegistry


def key(i):
    return ViewRegistry.key_for(("golf",), float(i), "greedy_sc", "time")


def test_seeding_past_the_bound_evicts_the_least_recently_used_view():
    registry = ViewRegistry(PostStore())
    for i in range(MAX_VIEWS):
        assert registry.seed(key(i), [], 1, epoch=0) is not None
    assert len(registry) == MAX_VIEWS
    assert registry.evictions == 0
    # a read refreshes view 0, so view 1 is now the least recently used
    assert registry.read(key(0), 0) is not None

    registry.seed(key(MAX_VIEWS), [], 1, epoch=0)

    assert len(registry) == MAX_VIEWS
    assert registry.evictions == 1
    assert registry.snapshot()["evictions"] == 1
    # the evicted key reads as a miss
    misses = registry.misses
    assert registry.get(key(1)) is None
    assert registry.read(key(1), 0) is None
    assert registry.misses == misses + 1
    # the view read just before the overflow survived it, as did the
    # newcomer and every view seeded after the evicted one
    assert registry.read(key(0), 0) is not None
    assert registry.read(key(MAX_VIEWS), 0) is not None
    assert all(
        registry.get(key(i)) is not None for i in range(2, MAX_VIEWS)
    )
