"""Streaming spatiotemporal diversification.

Completes the future-work extension: posts arrive in *time* order (the
primary dimension), every output must be reported within ``tau`` of
publication, and coverage is the box test over all dimensions.  Two
algorithms, mirroring the 1-D pair:

* :class:`InstantBoxCover` — the ``tau = 0`` algorithm: a per-label cache
  of recently selected posts (pruned once they fall a primary radius
  behind); an arrival is emitted iff some of its labels has no cached
  post box-covering it.
* :class:`StreamGreedyBox` — the windowed greedy: when the oldest post
  with an uncovered ``(post, label)`` pair turns ``tau`` old, greedily
  select posts from the window until everything pending is covered.

With one dimension these reduce to :class:`~repro.core.streaming
.InstantCover` and :class:`~repro.core.streaming.StreamGreedySC`
respectively — asserted in the tests — so the generalisation is strict.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.instance import window
from ..stream.events import Emission, StreamingAlgorithm
from .model import BoxCoverage, MultiPost

__all__ = ["InstantBoxCover", "StreamGreedyBox"]


class _BoxSelectedIndex:
    """Per-label primary-sorted index of selected posts."""

    def __init__(self, coverage: BoxCoverage):
        self.coverage = coverage
        # per label: the selected posts' sorted primary values and the
        # posts, index-aligned
        self._entries: Dict[str, Tuple[List[float], List[MultiPost]]] = {}

    def add(self, post: MultiPost) -> None:
        for label in post.labels:
            keys, posts = self._entries.setdefault(label, ([], []))
            at = bisect.bisect_right(keys, post.primary())
            keys.insert(at, post.primary())
            posts.insert(at, post)

    def covers(self, label: str, post: MultiPost) -> bool:
        keys, posts = self._entries.get(label, ((), ()))
        lo, hi = window(keys, post.primary(), self.coverage.radii[0])
        return any(
            self.coverage.within(selected, post) for selected in posts[lo:hi]
        )


class InstantBoxCover(StreamingAlgorithm):
    """Zero-delay box-coverage selection (the multi-dim InstantCover)."""

    name = "instant_box"

    def __init__(self, labels, radii: Sequence[float]):
        self.labels = set(labels)
        self.coverage = BoxCoverage(radii)
        self._selected = _BoxSelectedIndex(self.coverage)

    def on_arrival(self, post: MultiPost) -> List[Emission]:
        covered = all(
            self._selected.covers(label, post) for label in post.labels
        )
        if covered:
            return []
        self._selected.add(post)
        return [Emission(post=post, emitted_at=post.primary())]

    def next_deadline(self) -> Optional[float]:
        return None

    def on_deadline(self, now: float) -> List[Emission]:  # pragma: no cover
        return []


class StreamGreedyBox(StreamingAlgorithm):
    """Windowed greedy box cover (the multi-dim StreamGreedySC)."""

    name = "stream_greedy_box"

    def __init__(self, labels, radii: Sequence[float], tau: float):
        if not tau >= 0:  # refuses NaN too, on which a stream never drains
            raise ValueError(f"tau must be >= 0, got {tau}")
        self.labels = set(labels)
        self.coverage = BoxCoverage(radii)
        self.tau = float(tau)
        self._selected = _BoxSelectedIndex(self.coverage)
        self._pending: List[Tuple[MultiPost, Set[str]]] = []
        self._buffer: List[MultiPost] = []

    def _uncovered_labels(self, post: MultiPost) -> Set[str]:
        return {
            label
            for label in post.labels
            if label in self.labels
            and not self._selected.covers(label, post)
        }

    def _prune_buffer(self, threshold: float) -> None:
        if self._buffer and self._buffer[0].primary() < threshold:
            self._buffer = [
                p for p in self._buffer if p.primary() >= threshold
            ]

    def on_arrival(self, post: MultiPost) -> List[Emission]:
        if not post.labels & self.labels:
            return []
        self._buffer.append(post)
        uncovered = self._uncovered_labels(post)
        if uncovered:
            self._pending.append((post, uncovered))
        threshold = (
            self._pending[0][0].primary() if self._pending
            else post.primary()
        )
        self._prune_buffer(threshold)
        return []

    def next_deadline(self) -> Optional[float]:
        if not self._pending:
            return None
        return self._pending[0][0].primary() + self.tau

    def on_deadline(self, now: float) -> List[Emission]:
        window_start = self._pending[0][0].primary()
        candidates = [
            p for p in self._buffer
            if window_start <= p.primary() <= now
        ]
        emissions: List[Emission] = []
        while any(labels for _, labels in self._pending):
            picked = self._best_candidate(candidates)
            if picked is None:  # pragma: no cover - self-coverage guard
                break
            self._selected.add(picked)
            emissions.append(Emission(post=picked, emitted_at=now))
            for post, labels in self._pending:
                if self.coverage.within(post, picked):
                    labels -= picked.labels
        self._pending = []
        return emissions

    def _best_candidate(
        self, candidates: Sequence[MultiPost]
    ) -> Optional[MultiPost]:
        best: Optional[MultiPost] = None
        best_key: Optional[Tuple[int, float]] = None
        for candidate in candidates:
            gain = 0
            for post, labels in self._pending:
                if not self.coverage.within(post, candidate):
                    continue
                gain += len(labels & candidate.labels)
            if gain == 0:
                continue
            key = (gain, candidate.primary())
            if best_key is None or key > best_key:
                best_key = key
                best = candidate
        return best
