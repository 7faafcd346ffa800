"""Data model for multi-dimensional MQDP.

A :class:`MultiPost` sits at a point in a k-dimensional diversity space
(time x longitude, time x sentiment, ...); coverage is an axis-aligned box
test per shared label.  The structures mirror :mod:`repro.core.instance`
so the 1-D case behaves identically to the paper's formulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..core.instance import window
from ..errors import InvalidInstanceError

__all__ = ["MultiPost", "BoxCoverage", "MultiInstance"]


@dataclass(frozen=True)
class MultiPost:
    """A post at a point in k-dimensional diversity space."""

    uid: int
    values: Tuple[float, ...]
    labels: FrozenSet[str]
    text: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.values, tuple):
            object.__setattr__(
                self, "values", tuple(float(v) for v in self.values)
            )
        if not isinstance(self.labels, frozenset):
            object.__setattr__(self, "labels", frozenset(self.labels))

    @property
    def dimensions(self) -> int:
        return len(self.values)

    def primary(self) -> float:
        """The first (sweep) dimension's value — time, conventionally."""
        return self.values[0]


class BoxCoverage:
    """Per-dimension radii; covers = within every radius + shared label."""

    def __init__(self, radii: Sequence[float]):
        if not radii:
            raise InvalidInstanceError("need at least one dimension")
        if not all(r >= 0 for r in radii):  # refuses NaN too
            raise InvalidInstanceError(f"radii must be >= 0, got {radii}")
        self.radii: Tuple[float, ...] = tuple(float(r) for r in radii)

    @property
    def dimensions(self) -> int:
        return len(self.radii)

    def within(self, one: MultiPost, other: MultiPost) -> bool:
        """True when the two posts differ by at most the radius in every
        dimension (the geometric half of coverage)."""
        return all(
            abs(a - b) <= radius
            for a, b, radius in zip(one.values, other.values, self.radii)
        )

    def covers(self, coverer: MultiPost, label: str,
               covered: MultiPost) -> bool:
        return (
            label in coverer.labels
            and label in covered.labels
            and self.within(coverer, covered)
        )


class MultiInstance:
    """An immutable multi-dimensional MQDP instance.

    Posts are sorted by (primary value, uid); per-label posting lists allow
    primary-dimension windowing, with the remaining dimensions checked
    explicitly — the natural index layout when the primary dimension is
    time and the others are bounded (sentiment, geo coordinate).
    """

    def __init__(
        self,
        posts: Iterable[MultiPost],
        radii: Sequence[float],
        labels: Optional[Iterable[str]] = None,
    ):
        self.coverage = BoxCoverage(radii)
        post_list = sorted(posts, key=lambda p: (p.primary(), p.uid))
        seen = set()
        for post in post_list:
            if post.uid in seen:
                raise InvalidInstanceError(f"duplicate uid {post.uid}")
            seen.add(post.uid)
            if not post.labels:
                raise InvalidInstanceError(
                    f"post {post.uid} has an empty label set"
                )
            if post.dimensions != self.coverage.dimensions:
                raise InvalidInstanceError(
                    f"post {post.uid} has {post.dimensions} dimensions, "
                    f"coverage has {self.coverage.dimensions}"
                )
        used = set()
        for post in post_list:
            used |= post.labels
        if labels is None:
            universe = frozenset(used)
        else:
            universe = frozenset(labels)
            missing = used - universe
            if missing:
                raise InvalidInstanceError(
                    "posts reference labels outside the universe: "
                    + ", ".join(sorted(missing))
                )
        self._posts: Tuple[MultiPost, ...] = tuple(post_list)
        self._labels = universe
        self._by_uid = {p.uid: p for p in self._posts}
        self._posting: Dict[str, List[MultiPost]] = {
            a: [] for a in universe
        }
        for post in self._posts:
            for label in post.labels:
                self._posting[label].append(post)
        self._posting_primary: Dict[str, List[float]] = {
            a: [p.primary() for p in plist]
            for a, plist in self._posting.items()
        }

    @property
    def posts(self) -> Tuple[MultiPost, ...]:
        return self._posts

    @property
    def labels(self) -> frozenset:
        return self._labels

    @property
    def radii(self) -> Tuple[float, ...]:
        return self.coverage.radii

    def __len__(self) -> int:
        return len(self._posts)

    def post(self, uid: int) -> MultiPost:
        return self._by_uid[uid]

    def posting(self, label: str) -> List[MultiPost]:
        return self._posting[label]

    def candidates_near(self, label: str,
                        post: MultiPost) -> List[MultiPost]:
        """Label-sharing posts within the primary radius of ``post``, by
        the 1-D windows' exact test (the box test is the arbiter)."""
        lo, hi = window(
            self._posting_primary[label], post.primary(),
            self.coverage.radii[0],
        )
        return self._posting[label][lo:hi]

    def covered_pairs_by(self, post: MultiPost) -> set:
        """All ``(uid, label)`` pairs selecting ``post`` would box-cover."""
        pairs = set()
        for label in post.labels:
            for candidate in self.candidates_near(label, post):
                if self.coverage.within(post, candidate):
                    pairs.add((candidate.uid, label))
        return pairs

    def universe_pairs(self) -> set:
        """Every ``(uid, label)`` pair that must be covered."""
        return {
            (post.uid, label)
            for post in self._posts
            for label in post.labels
        }

    def is_cover(self, selected: Iterable[MultiPost]) -> bool:
        """True when ``selected`` box-covers the whole instance."""
        covered = set()
        for post in selected:
            covered |= self.covered_pairs_by(post)
        return self.universe_pairs() <= covered
