"""The versioned digest-result cache.

*Succinct Coverage Oracles* (PAPERS.md) argues that answering diversity
queries at scale hinges on **reusable coverage structures**: the expensive
part of a digest is the solver run, and a solver run is a pure function of
``(corpus, labels, lambda, algorithm, dimension)``.  This cache exploits
exactly that purity, for as long as reuse is exact and cheaper than the
solve.  A lookup is keyed by a :class:`CacheKey` that embeds the **corpus
epoch** — a version counter the service bumps whenever the corpus changes
(batch ingest, stream advance, checkpoint restore) — and only a key of the
current epoch can hit: a caller holding a key from before a bump misses,
and :meth:`ResultCache.put` refuses it.

Entries themselves are stored by query, the key minus its epoch, so every
resident entry answers for the current epoch.  A bump deletes what the
write can have changed: with the labels the write touched, exactly the
entries over one of them, found through a per-label index of resident
queries (a write that touches no label does no per-entry work); without
labels, everything.

Bound: LRU capacity (``capacity`` entries).  There is no time-to-live:
an entry only ever answers for the corpus it was computed over, so
expiring it would drop a correct answer.  All operations take the
cache lock — the service reads from the event loop while solver threads
publish results.

Hit/miss/eviction/invalidation counts are tallied both locally (for the
service health snapshot) and through the observability facade
(``service.cache.*`` counters) when a session is active.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, NamedTuple, Optional, \
    Set, Tuple

from ..observability import facade as _obs

__all__ = ["CacheKey", "CacheStats", "ResultCache"]


class CacheKey(NamedTuple):
    """Identity of one digest computation.

    ``epoch`` versions the corpus; the remaining fields identify the
    query.  Two requests with equal keys are guaranteed (by solver
    determinism) to produce identical digests, which is what makes both
    caching and request coalescing sound.
    """

    epoch: int
    labels: Tuple[str, ...]
    lam: float
    algorithm: str
    dimension: str


# a CacheKey minus its epoch: (labels, lam, algorithm, dimension)
Query = Tuple[Tuple[str, ...], float, str, str]


@dataclass
class CacheStats:
    """Monotone counters describing one cache's lifetime."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    stale_drops: int = 0
    carried_forward: int = 0

    def __post_init__(self) -> None:
        # entries invalidated because a write touched this label — a
        # label-targeted bump charges every label it intersected on
        self.invalidations_by_label: Dict[str, int] = {}

    def as_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "stale_drops": self.stale_drops,
            "carried_forward": self.carried_forward,
            "invalidations_by_label": dict(self.invalidations_by_label),
        }


class ResultCache:
    """Epoch-keyed, LRU-bounded result cache.

    Parameters
    ----------
    capacity:
        Maximum resident entries; the least recently used entry is
        evicted on overflow.  Must be positive.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        # query -> (value, horizon), in LRU order
        self._entries: "OrderedDict[Query, Tuple[Any, Any]]" = OrderedDict()
        # label -> the resident queries over it
        self._by_label: Dict[str, Set[Query]] = {}
        self._epoch = 0
        self.stats = CacheStats()

    # -- epoch management --------------------------------------------------

    @property
    def epoch(self) -> int:
        """The current corpus version; lookups key against it."""
        return self._epoch

    def key_for(
        self,
        labels: Iterable[str],
        lam: float,
        algorithm: str,
        dimension: str,
    ) -> CacheKey:
        """Build the lookup key for the *current* epoch."""
        return CacheKey(
            epoch=self._epoch,
            labels=tuple(sorted(set(labels))),
            lam=float(lam),
            algorithm=algorithm,
            dimension=dimension,
        )

    def bump_epoch(
        self,
        reason: str = "",
        labels: Optional[Iterable[str]] = None,
    ) -> int:
        """Advance the corpus version and invalidate what the write
        can have changed.

        Called by the service on batch ingest, on every stream advance,
        and on checkpoint restore.  Returns the new epoch.

        With ``labels`` (the label sets the write actually touched),
        invalidation is *fine-grained*: only the entries whose label set
        meets the affected labels are deleted.  The rest describe
        digests the write cannot have changed — a digest is a pure
        function of the posts matching its labels — so they stay, and
        answer for the new epoch (``carried_forward`` counts them).
        ``labels=None`` keeps the conservative purge-everything
        behaviour (restore, reprojection).
        """
        with self._lock:
            self._epoch += 1
            if labels is None:
                stale = len(self._entries)
                self._entries.clear()
                self._by_label.clear()
            else:
                by_label = self.stats.invalidations_by_label
                doomed: Set[Query] = set()
                for label in labels:  # a repeated label pops nothing
                    queries = self._by_label.pop(label, None)
                    if queries:
                        by_label[label] = by_label.get(label, 0) \
                            + len(queries)
                        doomed.update(queries)
                for query in doomed:
                    del self._entries[query]
                    self._unindex(query)
                stale = len(doomed)
                carried = len(self._entries)
                self.stats.carried_forward += carried
            self.stats.invalidations += stale
        if _obs.enabled():
            _obs.count("service.cache.invalidations", stale)
            if labels is not None:
                _obs.count("service.cache.invalidations_by_label", stale)
                _obs.count("service.cache.carried_forward", carried)
            _obs.set_gauge("service.cache.epoch", self._epoch)
        return self._epoch

    def _unindex(self, query: Query) -> None:
        """Drop ``query`` from the index sets of its labels (call under
        the lock; a label already popped is skipped)."""
        for label in query[0]:
            queries = self._by_label.get(label)
            if queries is not None:
                queries.discard(query)
                if not queries:
                    del self._by_label[label]

    # -- lookup / publish --------------------------------------------------

    def get(
        self,
        key: CacheKey,
        horizon: Optional[Callable[[], Any]] = None,
    ) -> Optional[Any]:
        """The cached value, or ``None`` on miss or stale epoch.

        ``horizon`` returns the oldest value the lookup's digest would
        read (``None`` without it).  It is called only when the query
        has an entry, under the cache lock.  An entry :meth:`put` at
        another horizon misses and is dropped: the window slid under it
        with no write on its labels, and a horizon never slides back
        while its entry lives."""
        with self._lock:
            if key.epoch != self._epoch:
                # Unreachable via key_for, but callers may hold old keys
                # across an epoch bump — treat them as plain misses.
                self.stats.misses += 1
                _obs.count("service.cache.misses")
                return None
            query = key[1:]
            entry = self._entries.get(query)
            if entry is not None and entry[1] != (
                None if horizon is None else horizon()
            ):
                del self._entries[query]
                self._unindex(query)
                entry = None
            if entry is None or entry[0] is None:
                self.stats.misses += 1
                _obs.count("service.cache.misses")
                return None
            self._entries.move_to_end(query)
            self.stats.hits += 1
            _obs.count("service.cache.hits")
            return entry[0]

    def put(self, key: CacheKey, value: Any, horizon: Any = None) -> bool:
        """Publish a result whose digest read from ``horizon`` on;
        refuses keys from a dead epoch (a solve that straddled an
        invalidation must not resurrect the old corpus).  Returns True
        when the entry was stored.  A refusal is not silent: it lands in
        ``stats.stale_drops`` and the ``service.cache.stale_drops``
        counter — the caller holds the trace context and is responsible
        for the correlated event."""
        with self._lock:
            if key.epoch != self._epoch:
                self.stats.stale_drops += 1
                _obs.count("service.cache.stale_drops")
                return False
            query = key[1:]
            entries = self._entries
            if query not in entries:
                for label in key.labels:
                    self._by_label.setdefault(label, set()).add(query)
            entries[query] = (value, horizon)
            entries.move_to_end(query)
            evicted = 0
            while len(entries) > self.capacity:
                self._unindex(entries.popitem(last=False)[0])
                evicted += 1
            self.stats.evictions += evicted
        if evicted and _obs.enabled():
            _obs.count("service.cache.evictions", evicted)
        return True

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key.epoch == self._epoch and key[1:] in self._entries

    def hit_rate(self) -> float:
        """Hits over lookups; 0.0 before any lookup."""
        total = self.stats.hits + self.stats.misses
        return self.stats.hits / total if total else 0.0
