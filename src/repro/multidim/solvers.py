"""Solvers for multi-dimensional MQDP.

All three return the shared :class:`repro.core.solution.Solution`-like
result via a small local type (multi-posts are not 1-D posts, so the core
Solution is not reused).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..observability import facade as _obs
from ..setcover import exact_set_cover, greedy_set_cover
from .model import MultiInstance, MultiPost

Clock = Callable[[], float]

__all__ = ["MultiSolution", "greedy_box", "sweep_box", "exact_box"]


@dataclass(frozen=True)
class MultiSolution:
    """A candidate box-cover of a multi-dimensional instance."""

    algorithm: str
    posts: Tuple[MultiPost, ...]
    elapsed: float = field(default=0.0, compare=False)

    @property
    def size(self) -> int:
        return len(self.posts)

    @property
    def uids(self) -> Tuple[int, ...]:
        return tuple(post.uid for post in self.posts)


def _resolve_clock(clock: Optional[Clock]) -> Clock:
    # None defers to the observability clock (time.perf_counter unless a
    # deterministic one was enabled) — the supervisor's clock= pattern.
    return clock if clock is not None else _obs.clock()


def _finish(algorithm: str, picks: List[MultiPost],
            started: float, clock: Clock) -> MultiSolution:
    unique = {post.uid: post for post in picks}
    ordered = sorted(unique.values(), key=lambda p: (p.primary(), p.uid))
    return MultiSolution(
        algorithm=algorithm,
        posts=tuple(ordered),
        elapsed=clock() - started,
    )


def _family(instance: MultiInstance):
    family = [instance.covered_pairs_by(post) for post in instance.posts]
    return family, instance.universe_pairs()


def greedy_box(instance: MultiInstance,
               strategy: str = "lazy_heap",
               clock: Optional[Clock] = None) -> MultiSolution:
    """GreedySC lifted to box coverage: still ``ln(|P||L|)``-approximate,
    since the transform to set cover is unchanged."""
    clock = _resolve_clock(clock)
    started = clock()
    family, universe = _family(instance)
    chosen = greedy_set_cover(family, universe=universe, strategy=strategy)
    picks = [instance.posts[idx] for idx in chosen]
    return _finish("greedy_box", picks, started, clock)


def exact_box(instance: MultiInstance,
              node_budget: int = 2_000_000,
              clock: Optional[Clock] = None) -> MultiSolution:
    """Minimum box-cover via exact set cover (small instances)."""
    clock = _resolve_clock(clock)
    started = clock()
    family, universe = _family(instance)
    chosen = exact_set_cover(family, universe=universe,
                             node_budget=node_budget)
    picks = [instance.posts[idx] for idx in chosen]
    return _finish("exact_box", picks, started, clock)


def sweep_box(instance: MultiInstance,
              clock: Optional[Clock] = None) -> MultiSolution:
    """The Scan idea lifted to a primary-dimension sweep.

    Per label, repeatedly take the sweep-order-first uncovered post and
    pick, among candidates that box-cover it, the one covering the most
    still-uncovered pairs of this label (ties towards the largest primary
    value, i.e. furthest forward reach).  In one dimension this reduces to
    Scan's optimal greedy; with extra dimensions per-label optimality is
    lost (covering points with unit squares is NP-hard), but the output is
    always a valid cover and each pick is locally maximal.
    """
    clock = _resolve_clock(clock)
    started = clock()
    picks: List[MultiPost] = []
    for label in sorted(instance.labels):
        plist = instance.posting(label)
        uncovered = {post.uid for post in plist}
        for post in plist:
            if post.uid not in uncovered:
                continue
            candidates = [
                candidate
                for candidate in instance.candidates_near(label, post)
                if instance.coverage.within(candidate, post)
            ]
            best = None
            best_key = None
            for candidate in candidates:
                gain = sum(
                    1
                    for other in instance.candidates_near(label, candidate)
                    if other.uid in uncovered
                    and instance.coverage.within(candidate, other)
                )
                key = (gain, candidate.primary())
                if best_key is None or key > best_key:
                    best_key = key
                    best = candidate
            if best is None:  # pragma: no cover - post covers itself
                best = post
            picks.append(best)
            for other in instance.candidates_near(label, best):
                if instance.coverage.within(best, other):
                    uncovered.discard(other.uid)
    return _finish("sweep_box", picks, started, clock)
