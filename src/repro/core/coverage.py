"""Coverage semantics and solution verification.

This module is the single source of truth for the paper's lambda-cover
definitions (Definitions 1 and 2):

* post ``P_i`` *lambda-covers* ``a in P_j`` when both posts carry label ``a``
  and their distance on the diversity dimension is at most lambda;
* a set ``Z`` lambda-covers post ``P_j`` when every label of ``P_j`` is
  lambda-covered by some member of ``Z``;
* ``Z`` is a lambda-cover of the instance when it lambda-covers every post.

Section 6 generalises the threshold to a post/label-specific radius, which
makes coverage *directional*; both semantics are expressed through the
:class:`CoverageModel` strategy so that every solver and the verifier share
one implementation.

Every candidate search here takes its posting-list window from
:func:`repro.core.instance.window`, which applies the same
``abs(a - b) <= radius`` test exactly; the rounded ``v +- radius`` only
starts its search.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..errors import InvalidCoverError
from .instance import Instance, window
from .post import Post

__all__ = [
    "CoverageModel",
    "FixedLambda",
    "VariableLambda",
    "is_cover",
    "uncovered_pairs",
    "verify_cover",
    "covered_pairs_by",
]


class CoverageModel:
    """Strategy describing when one post covers a label of another."""

    def radius(self, coverer: Post, label: str) -> float:
        """The coverage radius the ``coverer`` projects for ``label``."""
        raise NotImplementedError

    def max_radius(self) -> float:
        """An upper bound on any radius, used to window candidate searches."""
        raise NotImplementedError

    def covers(self, coverer: Post, label: str, covered: Post) -> bool:
        """True when ``coverer`` lambda-covers ``label in covered``."""
        return (
            label in coverer.labels
            and label in covered.labels
            and abs(coverer.value - covered.value) <= self.radius(coverer, label)
        )


class FixedLambda(CoverageModel):
    """The uniform threshold of Sections 2-5: one lambda for everything."""

    def __init__(self, lam: float):
        self.lam = float(lam)

    def radius(self, coverer: Post, label: str) -> float:
        return self.lam

    def max_radius(self) -> float:
        return self.lam

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FixedLambda({self.lam:g})"


class VariableLambda(CoverageModel):
    """Post/label-specific radii (Section 6, proportional diversity).

    The radius belongs to the *covering* post: ``P_i`` covers ``a in P_j``
    iff ``|t_i - t_j| <= lambda_a(P_i)``.  With unequal radii the relation is
    directional — exactly the subtlety the paper points out.

    Parameters
    ----------
    radius_fn:
        Maps ``(post, label)`` to that post's coverage radius for the label.
    upper_bound:
        A value no radius exceeds; lets algorithms window their searches.
    """

    def __init__(self, radius_fn: Callable[[Post, str], float],
                 upper_bound: float):
        self._radius_fn = radius_fn
        self._upper = float(upper_bound)

    def radius(self, coverer: Post, label: str) -> float:
        return self._radius_fn(coverer, label)

    def max_radius(self) -> float:
        return self._upper


def _model_for(instance: Instance,
               model: Optional[CoverageModel]) -> CoverageModel:
    return model if model is not None else FixedLambda(instance.lam)


def covered_pairs_by(
    instance: Instance, post: Post, model: Optional[CoverageModel] = None
) -> Set[Tuple[int, str]]:
    """All ``(uid, label)`` pairs that selecting ``post`` would cover."""
    model = _model_for(instance, model)
    pairs: Set[Tuple[int, str]] = set()
    for label in post.labels:
        plist = instance.posting(label)
        lo, hi = window(plist.values, post.value, model.radius(post, label))
        pairs.update((other.uid, label) for other in plist.posts[lo:hi])
    return pairs


def uncovered_pairs(
    instance: Instance,
    selected: Iterable[Post],
    model: Optional[CoverageModel] = None,
) -> List[Tuple[int, str]]:
    """The ``(uid, label)`` pairs left uncovered by ``selected``.

    Runs in ``O(sum_a (|LP(a)| + |Z_a|) log)`` time using per-label sorted
    sweeps, so it is cheap enough to call inside property-based tests.
    """
    model = _model_for(instance, model)
    selected = list(selected)
    by_label: Dict[str, List[Tuple[float, Post]]] = {}
    for post in selected:
        for label in post.labels:
            by_label.setdefault(label, []).append((post.value, post))
    for entries in by_label.values():
        entries.sort(key=lambda pair: pair[0])

    missing: List[Tuple[int, str]] = []
    max_radius = model.max_radius()
    for label in sorted(instance.labels):
        plist = instance.posting(label)
        entries = by_label.get(label, [])
        values = [value for value, _ in entries]
        for post in plist:
            # every candidate within its own radius is within max_radius
            lo, hi = window(values, post.value, max_radius)
            if not any(
                abs(candidate.value - post.value)
                <= model.radius(candidate, label)
                for _, candidate in entries[lo:hi]
            ):
                missing.append((post.uid, label))
    return missing


def is_cover(
    instance: Instance,
    selected: Iterable[Post],
    model: Optional[CoverageModel] = None,
) -> bool:
    """True when ``selected`` is a lambda-cover of the instance."""
    return not uncovered_pairs(instance, selected, model)


def verify_cover(
    instance: Instance,
    selected: Iterable[Post],
    model: Optional[CoverageModel] = None,
) -> None:
    """Raise :class:`InvalidCoverError` when ``selected`` is not a cover.

    The exception message enumerates (a sample of) the uncovered pairs,
    which makes algorithm regressions immediately diagnosable in tests.
    """
    missing = uncovered_pairs(instance, selected, model)
    if missing:
        sample = ", ".join(f"(post {u}, label {a!r})" for u, a in missing[:8])
        more = "" if len(missing) <= 8 else f" and {len(missing) - 8} more"
        raise InvalidCoverError(
            f"{len(missing)} uncovered (post, label) pairs: {sample}{more}"
        )
