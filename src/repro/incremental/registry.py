"""The view registry: epoch-committed, LRU-bounded cover views.

Holds every live :class:`~repro.incremental.view.CoverView`, keyed by
``(labels, λ, algorithm, dimension)`` — the same identity (minus epoch)
the result cache keys on.  The registry is the single point where the
service applies write-path deltas and where the read path asks for a
materialized digest.

**Epoch discipline.**  A view is servable only when its epoch equals
both the registry's committed epoch *and* the epoch embedded in the
caller's cache key.  The service's write path applies deltas first, then
bumps the cache epoch, then :meth:`commit`\\ s the registry at the new
epoch — so between the bump and the commit a concurrent read misses the
view and falls through to the batch engine.  Stale views can be read
*never*; at worst a fresh view is missed.  Seeding follows the result
cache's dead-epoch rule: a solve that straddled an invalidation is
refused (``stale_seeds``).

**Bound.**  At most :data:`MAX_VIEWS` views live at once; seeding one
more evicts the least recently seeded or read view (``evictions``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, \
    Tuple

from ..core.post import Post
from ..observability import facade as _obs
from .store import PostStore
from .view import CoverView

__all__ = ["MAX_VIEWS", "ViewKey", "ViewRegistry"]

# views maintained at once; past it the least recently used is evicted
MAX_VIEWS = 64


class ViewKey(NamedTuple):
    """Identity of one maintained view (epoch-free: views roll forward
    through epochs; servability is checked against the committed one)."""

    labels: Tuple[str, ...]
    lam: float
    algorithm: str
    dimension: str


class ViewRegistry:
    """All maintained cover views over one shared :class:`PostStore`."""

    def __init__(
        self,
        store: PostStore,
        *,
        default_window: Optional[float] = None,
    ):
        self.store = store
        # sliding windows: the service-wide default plus per-label-set
        # overrides.  The *store* physically expires at the widest of
        # them (retention()); narrower windows are per-view horizons.
        self.default_window = default_window
        self._windows: Dict[Tuple[str, ...], float] = {}
        self._lock = threading.RLock()
        self._views: "OrderedDict[ViewKey, CoverView]" = OrderedDict()
        self.epoch = 0
        # lifetime counters
        self.hits = 0
        self.misses = 0
        self.stale_reads = 0
        self.rebuild_reads = 0
        self.seeds = 0
        self.stale_seeds = 0
        self.evictions = 0
        self.invalidations = 0

    @staticmethod
    def key_for(
        labels: Iterable[str],
        lam: float,
        algorithm: str,
        dimension: str,
    ) -> ViewKey:
        return ViewKey(
            labels=tuple(sorted(set(labels))),
            lam=float(lam),
            algorithm=algorithm,
            dimension=dimension,
        )

    # -- per-label-set windows ---------------------------------------------

    def set_window(
        self, labels: Iterable[str], window: Optional[float]
    ) -> int:
        """Override the sliding window for one label set.

        ``None`` clears the override (the label set falls back to the
        default window).  Views materialized for exactly this label set
        are invalidated — their cover was maintained against the old
        horizon — and re-seed from the next batch solve.  Returns the
        number of views invalidated.
        """
        key = tuple(sorted(set(labels)))
        with self._lock:
            if window is None:
                self._windows.pop(key, None)
            else:
                self._windows[key] = float(window)
            invalidated = 0
            for view_key, view in self._views.items():
                if view_key.labels == key:
                    view.invalidate()
                    view.window = self.window_for(key)
                    invalidated += 1
            self.invalidations += invalidated
        if invalidated:
            _obs.count("service.views.invalidations", invalidated)
        return invalidated

    def window_for(
        self, labels: Iterable[str]
    ) -> Optional[float]:
        """The effective window for a label set: its override, else the
        default."""
        return self._windows.get(
            tuple(sorted(set(labels))), self.default_window
        )

    def windows(self) -> Dict[Tuple[str, ...], float]:
        with self._lock:
            return dict(self._windows)

    def retention(self) -> Optional[float]:
        """How long the *store* must physically keep posts: the widest
        of the default window and every override.  ``None`` (keep
        everything) when the default is unbounded — an override can
        narrow a view below the default, never widen physical retention
        past an unbounded one."""
        if self.default_window is None:
            return None
        with self._lock:
            if not self._windows:
                return self.default_window
            return max(self.default_window, max(self._windows.values()))

    def advance(self, max_value: Optional[float]) -> set:
        """Slide every windowed view's own horizon to
        ``max_value - window``.  Returns the labels of views whose
        horizon actually moved — their cached digests must not be
        carried forward across the epoch bump, even when the arriving
        batch touched none of their labels.  With no window configured
        anywhere nothing slides, and the call returns at once."""
        if max_value is None or (
            self.default_window is None and not self._windows
        ):
            return set()
        affected: set = set()
        with self._lock:
            store_horizon = self.store.horizon
            for key, view in self._views.items():
                # seed and set_window keep it equal to window_for(labels)
                window = view.window
                if window is None:
                    continue
                cutoff = max_value - window
                if view.advance_horizon(cutoff) is None:
                    continue
                # a horizon at or below the store's physical one drops
                # nothing the expiry pass did not already report — only
                # a *narrower* window invalidates on its own
                if store_horizon is None or cutoff > store_horizon:
                    affected.update(key.labels)
        return affected

    # -- write path --------------------------------------------------------

    def seed(self, key: ViewKey, posts: Sequence[Post],
             baseline_size: int, epoch: int) -> Optional[CoverView]:
        """Adopt a batch cover for ``key``, computed at ``epoch``.

        Refused when ``epoch`` is no longer the committed one — the
        solve straddled an invalidation and its cover may not match the
        current corpus.  Returns the seeded view, or ``None``.
        """
        with self._lock:
            if epoch != self.epoch:
                self.stale_seeds += 1
                _obs.count("service.views.stale_seeds")
                return None
            view = self._views.get(key)
            if view is None:
                view = CoverView(
                    self.store, key.labels, key.lam,
                    algorithm=key.algorithm, dimension=key.dimension,
                )
                self._views[key] = view
            window = self.window_for(key.labels)
            view.window = window
            if window is not None and self.store.max_value is not None:
                # the seeding solve was clipped at this horizon; record
                # it so reads and future deltas clip identically
                view.horizon = self.store.max_value - window
            elif window is None:
                view.horizon = None
            view.seed(posts, baseline_size, epoch)
            self._views.move_to_end(key)
            while len(self._views) > MAX_VIEWS:
                self._views.popitem(last=False)
                self.evictions += 1
                _obs.count("service.views.evictions")
            self.seeds += 1
            _obs.count("service.views.seeds")
            return view

    def apply_insert(self, post: Post) -> int:
        """Fan one arrival out to every view; returns selection count."""
        with self._lock:
            selected = 0
            for view in self._views.values():
                if view.apply_insert(post):
                    selected += 1
            return selected

    def apply_expire(self, removed: Sequence[Post]) -> int:
        """Fan window expiries out; returns total evicted members."""
        if not removed:
            return 0
        with self._lock:
            evicted = 0
            for view in self._views.values():
                evicted += view.apply_expire(removed)
            return evicted

    def commit(self, epoch: int) -> None:
        """Mark every maintained view current at ``epoch``.

        Call *after* the deltas for the epoch bump have been applied;
        stale/needs-rebuild views stay unservable regardless."""
        with self._lock:
            self.epoch = epoch
            for view in self._views.values():
                if not view.stale:
                    view.epoch = epoch
        _obs.count("service.views.commits")

    def rebind(self, store: PostStore) -> None:
        """Swap in a freshly rebuilt store; every view is invalidated
        (its cover was maintained against the old projection)."""
        with self._lock:
            self.store = store
            for view in self._views.values():
                view.store = store
                view.invalidate()
            self.invalidations += len(self._views)
        _obs.count("service.views.rebinds")

    def invalidate_all(self, reason: str = "") -> int:
        """Drop every view's maintained state (e.g. restore, reorder)."""
        with self._lock:
            for view in self._views.values():
                view.invalidate()
            count = len(self._views)
            self.invalidations += count
        if count:
            _obs.count("service.views.invalidations", count)
        return count

    # -- read path ---------------------------------------------------------

    def get(self, key: ViewKey) -> Optional[CoverView]:
        with self._lock:
            return self._views.get(key)

    def read(self, key: ViewKey, epoch: int) -> Optional[CoverView]:
        """The servable view for ``key`` at ``epoch``, or ``None``.

        Misses are classified: absent (``misses``), wrong epoch or
        unseeded (``stale_reads``), drifted past the ratio bound
        (``rebuild_reads`` — the caller should batch-solve and re-seed).
        """
        with self._lock:
            view = self._views.get(key)
            if view is None:
                self.misses += 1
                _obs.count("service.views.misses")
                return None
            if view.needs_rebuild:
                self.rebuild_reads += 1
                _obs.count("service.views.rebuild_reads")
                return None
            if epoch != self.epoch or not view.fresh(epoch):
                self.stale_reads += 1
                _obs.count("service.views.stale_reads")
                return None
            self._views.move_to_end(key)
            self.hits += 1
            _obs.count("service.views.hits")
            return view

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._views)

    def views(self) -> List[CoverView]:
        with self._lock:
            return list(self._views.values())

    def hit_rate(self) -> float:
        total = self.hits + self.misses + self.stale_reads \
            + self.rebuild_reads
        return self.hits / total if total else 0.0

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe registry + per-view stats for ``introspect()``."""
        with self._lock:
            return {
                "epoch": self.epoch,
                "count": len(self._views),
                "max_views": MAX_VIEWS,
                "hits": self.hits,
                "misses": self.misses,
                "stale_reads": self.stale_reads,
                "rebuild_reads": self.rebuild_reads,
                "hit_rate": self.hit_rate(),
                "seeds": self.seeds,
                "stale_seeds": self.stale_seeds,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "default_window": self.default_window,
                "window_overrides": {
                    ",".join(labels): window
                    for labels, window in sorted(self._windows.items())
                },
                "retention": self.retention(),
                "store": self.store.stats(),
                "views": [
                    view.snapshot() for view in self._views.values()
                ],
            }
