"""The versioned digest-result cache.

*Succinct Coverage Oracles* (PAPERS.md) argues that answering diversity
queries at scale hinges on **reusable coverage structures**: the expensive
part of a digest is the solver run, and a solver run is a pure function of
``(corpus, labels, lambda, algorithm, dimension)``.  This cache exploits
exactly that purity.  Every entry is keyed by a :class:`CacheKey` that
embeds the **corpus epoch** — a version counter the service bumps whenever
the corpus changes (batch ingest, stream advance, checkpoint restore) —
so a stale entry is not merely evicted *eventually*: it becomes
unreachable the instant the epoch moves, because no future lookup can
construct its key.  :meth:`ResultCache.bump_epoch` additionally purges the
dead generation eagerly so stale entries stop occupying LRU capacity.

Bound: LRU capacity (``capacity`` entries).  There is no time-to-live:
an entry can only ever answer for the corpus epoch it was computed at,
so expiring it would drop a correct answer.  All operations take the
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
from typing import Any, Dict, Iterable, NamedTuple, Optional, Tuple

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
        self._entries: "OrderedDict[CacheKey, Any]" = OrderedDict()
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
        """Advance the corpus version and invalidate the dead generation.

        Called by the service on batch ingest, on every stream advance,
        and on checkpoint restore.  Returns the new epoch.

        With ``labels`` (the label sets the write actually touched),
        invalidation is *fine-grained*: entries whose label set is
        disjoint from the affected labels describe digests the write
        cannot have changed — a digest is a pure function of the posts
        matching its labels — so they are carried forward, re-keyed to
        the new epoch, instead of purged.  ``labels=None`` keeps the
        conservative purge-everything behaviour (restore, reprojection).
        """
        affected = None if labels is None else frozenset(labels)
        with self._lock:
            self._epoch += 1
            if affected is None:
                stale = len(self._entries)
                self._entries.clear()
            else:
                stale = 0
                survivors: "OrderedDict[CacheKey, Any]" = OrderedDict()
                for key, entry in self._entries.items():
                    touched = affected.intersection(key.labels)
                    if touched:
                        stale += 1
                        for label in touched:
                            self.stats.invalidations_by_label[label] = \
                                self.stats.invalidations_by_label.get(
                                    label, 0
                                ) + 1
                    else:
                        survivors[key._replace(epoch=self._epoch)] = entry
                self._entries = survivors
                self.stats.carried_forward += len(survivors)
                carried = len(survivors)
            self.stats.invalidations += stale
        if _obs.enabled():
            _obs.count("service.cache.invalidations", stale)
            if affected is not None:
                _obs.count("service.cache.invalidations_by_label", stale)
                _obs.count("service.cache.carried_forward", carried)
            _obs.set_gauge("service.cache.epoch", self._epoch)
        return self._epoch

    # -- lookup / publish --------------------------------------------------

    def get(self, key: CacheKey) -> Optional[Any]:
        """The cached value, or ``None`` on miss or stale epoch."""
        with self._lock:
            if key.epoch != self._epoch:
                # Unreachable via key_for, but callers may hold old keys
                # across an epoch bump — treat them as plain misses.
                self.stats.misses += 1
                _obs.count("service.cache.misses")
                return None
            value = self._entries.get(key)
            if value is None:
                self.stats.misses += 1
                _obs.count("service.cache.misses")
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            _obs.count("service.cache.hits")
            return value

    def put(self, key: CacheKey, value: Any) -> bool:
        """Publish a result; refuses keys from a dead epoch (a solve
        that straddled an invalidation must not resurrect the old
        corpus).  Returns True when the entry was stored.  A refusal is
        not silent: it lands in ``stats.stale_drops`` and the
        ``service.cache.stale_drops`` counter — the caller holds the
        trace context and is responsible for the correlated event."""
        with self._lock:
            if key.epoch != self._epoch:
                self.stats.stale_drops += 1
                _obs.count("service.cache.stale_drops")
                return False
            self._entries[key] = value
            self._entries.move_to_end(key)
            evicted = 0
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
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
            return key in self._entries

    def hit_rate(self) -> float:
        """Hits over lookups; 0.0 before any lookup."""
        total = self.stats.hits + self.stats.misses
        return self.stats.hits / total if total else 0.0
