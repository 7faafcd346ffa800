"""Streaming MQDP algorithms (Section 5).

Posts arrive in timestamp order; every selected post must be reported within
``tau`` of its publication time.  Five solvers are provided:

* :class:`StreamScan` — the per-label adaptation of Scan.  Each label tracks
  its oldest and latest uncovered posts and emits the latest one at time
  ``min(t(P_lu) + tau, t(P_ou) + lambda)``.  Matches batch Scan exactly when
  ``tau >= lambda`` (bound ``s``); bound ``2s`` otherwise.
* :class:`StreamScanPlus` — StreamScan with cross-label propagation: an
  emitted post immediately covers the pending posts of *all* its labels.
* :class:`InstantCover` — the ``tau = 0`` algorithm shared by both families:
  a cache holds the most recently selected post per label; an arriving post
  is emitted on the spot iff some of its labels is uncovered.  Bound ``2s``.
* :class:`StreamGreedySC` — windowed greedy set cover: when the oldest
  uncovered post ``P'`` turns ``tau`` old, run greedy set cover over the
  window ``[t(P'), t(P') + tau]`` until every pending pair is covered.
* :class:`StreamGreedySCPlus` — same, but stop the greedy as soon as ``P'``
  itself is covered and reschedule for the next uncovered post.

All classes implement :class:`repro.stream.events.StreamingAlgorithm` and
are driven by :func:`repro.stream.runner.run_stream`.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..observability import facade as _obs
from ..stream.events import Emission, StreamingAlgorithm
from ..stream.runner import StreamResult, run_stream
from .instance import Instance, window
from .post import Post

__all__ = [
    "StreamScan",
    "StreamScanPlus",
    "InstantCover",
    "StreamGreedySC",
    "StreamGreedySCPlus",
    "stream_solve",
]


class _SelectedIndex:
    """Per-label sorted index of selected posts, for coverage queries."""

    def __init__(self) -> None:
        self._values: Dict[str, List[float]] = {}

    def add(self, post: Post) -> None:
        for label in post.labels:
            values = self._values.setdefault(label, [])
            bisect.insort(values, post.value)

    def covers(self, label: str, value: float, lam: float) -> bool:
        lo, hi = window(self._values.get(label, ()), value, lam)
        return lo < hi


class StreamScan(StreamingAlgorithm):
    """Per-label streaming Scan with decision delay ``tau``."""

    name = "stream_scan"
    propagate = False

    def __init__(self, labels, lam: float, tau: float):
        # `not >=` refuses NaN too, on which a stream never drains
        if not (lam >= 0 and tau >= 0):
            raise ValueError("lambda and tau must be non-negative")
        self.labels = sorted(labels)
        self.lam = float(lam)
        self.tau = float(tau)
        # pending[a]: uncovered posts for label a, in arrival order; the
        # oldest is the paper's P_ou(a) and the newest its P_lu(a).
        self._pending: Dict[str, List[Post]] = {a: [] for a in self.labels}
        self._last_emitted: Dict[str, Optional[Post]] = {
            a: None for a in self.labels
        }
        self._emitted_uids: Set[int] = set()

    # -- deadline bookkeeping ---------------------------------------------

    def _deadline(self, label: str) -> Optional[float]:
        pending = self._pending[label]
        if not pending:
            return None
        return min(pending[-1].value + self.tau, pending[0].value + self.lam)

    def next_deadline(self) -> Optional[float]:
        deadlines = [
            d for d in (self._deadline(a) for a in self.labels)
            if d is not None
        ]
        return min(deadlines) if deadlines else None

    # -- events -------------------------------------------------------------

    def on_arrival(self, post: Post) -> List[Emission]:
        emissions: List[Emission] = []
        for label in post.labels:
            if label not in self._pending:
                continue
            last = self._last_emitted[label]
            if last is not None and abs(last.value - post.value) <= self.lam:
                continue  # still covered by the previous output
            pending = self._pending[label]
            if pending and post.value - pending[0].value > self.lam:
                # The label's lambda-deadline coincides with this arrival
                # up to float rounding (`t_ou + lam >= t` can hold while
                # `t - t_ou > lam` does), so admitting the post would break
                # the invariant that one emission covers all pending posts.
                # Fire the deadline first, exactly as the batch Scan's
                # subtraction test would.
                emissions.extend(self._emit(label, post.value))
            self._pending[label].append(post)
        return emissions

    def on_deadline(self, now: float) -> List[Emission]:
        emissions: List[Emission] = []
        for label in self.labels:
            if self._deadline(label) != now:
                continue
            emissions.extend(self._emit(label, now))
        return emissions

    def _emit(self, label: str, now: float) -> List[Emission]:
        pending = self._pending[label]
        picked = pending[-1]
        self._last_emitted[label] = picked
        pending.clear()
        emissions: List[Emission] = []
        if picked.uid not in self._emitted_uids:
            self._emitted_uids.add(picked.uid)
            emissions.append(Emission(post=picked, emitted_at=now))
        if self.propagate:
            self._propagate(picked)
        return emissions

    def _propagate(self, picked: Post) -> None:
        """Scan+-style improvement: an output covers all its labels."""
        for label in picked.labels:
            if label not in self._pending:
                continue
            last = self._last_emitted[label]
            if last is None or picked.value > last.value:
                self._last_emitted[label] = picked
            self._pending[label] = [
                p for p in self._pending[label]
                if abs(p.value - picked.value) > self.lam
            ]


class StreamScanPlus(StreamScan):
    """StreamScan with cross-label coverage propagation."""

    name = "stream_scan+"
    propagate = True


class InstantCover(StreamingAlgorithm):
    """The instant-decision algorithm (``tau = 0``), bound ``2s``.

    A small cache keeps the most recently selected post per label; an
    arriving post is output immediately iff at least one of its labels has
    no cached post within ``lambda``.

    The cache stores only ``(value, uid)`` per label — holding whole
    :class:`Post` objects would pin every selected post's text and label
    set in memory for the stream's lifetime.  With ``window`` set, entries
    older than ``now - window`` are evicted on arrival; any ``window >=
    lam`` leaves the emission sequence untouched on time-ordered streams,
    because an entry that old can never cover a future arrival again.
    """

    name = "instant"

    def __init__(self, labels, lam: float, window: Optional[float] = None):
        if not lam >= 0:  # refuses NaN too
            raise ValueError(f"lambda must be >= 0, got {lam}")
        if window is not None and not window >= lam:
            raise ValueError(
                "window must be >= lambda: an entry younger than lambda "
                f"can still cover arrivals (window={window}, lam={lam})"
            )
        self.labels = set(labels)
        self.lam = float(lam)
        self.window = None if window is None else float(window)
        self._cache: Dict[str, Tuple[float, int]] = {}
        self.evicted = 0

    def _expire(self, now: float) -> None:
        if self.window is None:
            return
        horizon = now - self.window
        dead = [
            label
            for label, (value, _) in self._cache.items()
            if value < horizon
        ]
        for label in dead:
            del self._cache[label]
        self.evicted += len(dead)

    def on_arrival(self, post: Post) -> List[Emission]:
        self._expire(post.value)
        covered = all(
            label in self._cache
            and abs(self._cache[label][0] - post.value) <= self.lam
            for label in post.labels
        )
        if covered:
            return []
        entry = (post.value, post.uid)
        for label in post.labels:
            self._cache[label] = entry
        return [Emission(post=post, emitted_at=post.value)]

    def next_deadline(self) -> Optional[float]:
        return None

    def on_deadline(self, now: float) -> List[Emission]:  # pragma: no cover
        return []


class StreamGreedySC(StreamingAlgorithm):
    """Windowed greedy set cover over ``[t(P'), t(P') + tau]``."""

    name = "stream_greedy_sc"
    stop_at_oldest = False

    def __init__(self, labels, lam: float, tau: float):
        # `not >=` refuses NaN too, on which a stream never drains
        if not (lam >= 0 and tau >= 0):
            raise ValueError("lambda and tau must be non-negative")
        self.labels = set(labels)
        self.lam = float(lam)
        self.tau = float(tau)
        self._selected = _SelectedIndex()
        # pending: posts with >= 1 uncovered (post, label) pair, in arrival
        # order, with the set of still-uncovered labels alongside.
        self._pending: List[Tuple[Post, Set[str]]] = []
        # buffer: recent posts (covered or not) eligible as greedy picks.
        self._buffer: List[Post] = []

    # -- helpers ---------------------------------------------------------

    def _uncovered_labels(self, post: Post) -> Set[str]:
        return {
            label
            for label in post.labels
            if label in self.labels
            and not self._selected.covers(label, post.value, self.lam)
        }

    def _prune_buffer(self, threshold: float) -> None:
        if self._buffer and self._buffer[0].value < threshold:
            self._buffer = [
                p for p in self._buffer if p.value >= threshold
            ]

    # -- events -------------------------------------------------------------

    def on_arrival(self, post: Post) -> List[Emission]:
        if not post.labels & self.labels:
            return []
        self._buffer.append(post)
        uncovered = self._uncovered_labels(post)
        if uncovered:
            self._pending.append((post, uncovered))
        threshold = (
            self._pending[0][0].value if self._pending else post.value
        )
        self._prune_buffer(threshold)
        return []

    def next_deadline(self) -> Optional[float]:
        if not self._pending:
            return None
        return self._pending[0][0].value + self.tau

    def on_deadline(self, now: float) -> List[Emission]:
        oldest = self._pending[0][0]
        window_start = oldest.value
        candidates = [
            p for p in self._buffer if window_start <= p.value <= now
        ]
        emissions: List[Emission] = []
        # (candidate, pending) pairs examined across this window's greedy
        # rounds — the windowed set cover's unit of work
        gain_evaluations = 0
        while self._pending:
            if self.stop_at_oldest and not self._pending[0][1]:
                # P' got covered: reschedule around the next uncovered post.
                self._pending = [
                    entry for entry in self._pending if entry[1]
                ]
                break
            if not any(labels for _, labels in self._pending):
                self._pending = []
                break
            gain_evaluations += len(candidates) * len(self._pending)
            picked = self._best_candidate(candidates)
            if picked is None:  # pragma: no cover - every pending post is
                break  # its own candidate, so this cannot happen
            self._selected.add(picked)
            emissions.append(Emission(post=picked, emitted_at=now))
            self._apply_coverage(picked)
        if self._pending:
            self._prune_buffer(self._pending[0][0].value)
        if _obs.enabled():
            _obs.count("stream_greedy.windows")
            _obs.count("stream_greedy.gain_evaluations", gain_evaluations)
            _obs.count("stream_greedy.window_emissions", len(emissions))
        return emissions

    def _best_candidate(self, candidates: Sequence[Post]) -> Optional[Post]:
        best: Optional[Post] = None
        best_gain = 0
        for candidate in candidates:
            gain = 0
            for post, labels in self._pending:
                if abs(post.value - candidate.value) > self.lam:
                    continue
                gain += len(labels & candidate.labels)
            # Ties break towards the *latest* candidate: equal pending
            # coverage, but the later post also covers lambda further into
            # the future, exactly like Scan picking the furthest post.
            if gain > best_gain or (
                gain == best_gain
                and best is not None
                and gain > 0
                and candidate.value > best.value
            ):
                best_gain = gain
                best = candidate
        return best

    def _apply_coverage(self, picked: Post) -> None:
        for post, labels in self._pending:
            if abs(post.value - picked.value) <= self.lam:
                labels -= picked.labels


class StreamGreedySCPlus(StreamGreedySC):
    """StreamGreedySC that stops each window once ``P'`` is covered."""

    name = "stream_greedy_sc+"
    stop_at_oldest = True


_STREAM_FACTORIES = {
    "stream_scan": lambda labels, lam, tau: StreamScan(labels, lam, tau),
    "stream_scan+": lambda labels, lam, tau: StreamScanPlus(labels, lam, tau),
    "instant": lambda labels, lam, tau: InstantCover(labels, lam),
    "stream_greedy_sc": lambda labels, lam, tau: StreamGreedySC(
        labels, lam, tau
    ),
    "stream_greedy_sc+": lambda labels, lam, tau: StreamGreedySCPlus(
        labels, lam, tau
    ),
}


def stream_solve(
    name: str, instance: Instance, tau: float
) -> StreamResult:
    """Run the named streaming algorithm over an instance's posts.

    The instance's posts play the role of the arriving stream (they are
    already time-ordered) and its ``lam`` is the coverage threshold.
    """
    try:
        factory = _STREAM_FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown streaming algorithm {name!r}; "
            f"choose from {sorted(_STREAM_FACTORIES)}"
        ) from None
    algorithm = factory(instance.labels, instance.lam, tau)
    with _obs.span("stream.solve", algorithm=name, tau=tau):
        return run_stream(algorithm, instance.posts)
