"""Proportional diversity through a variable lambda (Section 6).

A uniform lambda returns roughly evenly spaced representatives.  To make the
output *proportional* — more posts where the data is dense (popular topics,
busy hours, dominant sentiment) — the paper assigns every (post, label) pair
its own coverage radius via the smooth formula of Equation (2)::

    lambda_a(P_i) = lambda0 * exp(1 - density_a(t_i - lambda0, t_i + lambda0)
                                      / density_0)

where ``density_a`` is the local rate of label-``a`` posts around ``P_i`` and
``density_0`` the global average rate of relevant posts.  Dense regions get
small radii (so more representatives survive), sparse regions get radii up to
``e * lambda0`` (so rare perspectives still appear) — the non-linearity is
deliberate, see the paper's discussion of rare-but-important viewpoints.

With unequal radii coverage becomes *directional* (``P_i`` may cover
``a in P_j`` without the converse); this module adapts each solver:

* :func:`scan_variable` — per label, the classical optimal greedy for
  covering points with heterogeneous intervals: repeatedly pick, among the
  candidates covering the leftmost uncovered post, the one reaching furthest
  right.  Retains the ``s`` bound.
* :func:`greedy_sc_variable` — greedy set cover over the directional family.
* :func:`exact_variable` — exact branch-and-bound over the same family, the
  ground truth for the proportionality ablation.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from ..setcover import exact_set_cover, greedy_set_cover
from .coverage import CoverageModel, VariableLambda, covered_pairs_by
from .instance import Instance, window
from .post import Post
from .solution import Solution, timed_solution

__all__ = [
    "ProportionalLambda",
    "scan_variable",
    "greedy_sc_variable",
    "exact_variable",
]


class ProportionalLambda(VariableLambda):
    """Equation (2): density-modulated per-(post, label) radii.

    Parameters
    ----------
    instance:
        The post collection; densities are measured on its posting lists.
    lam0:
        The expert-set base threshold ``lambda0``.
    density0:
        The reference density (posts per dimension unit).  Defaults to the
        overall rate of relevant posts, ``|P| / span`` — the natural reading
        of the paper's "average number of posts per minute relevant to any
        label".
    """

    def __init__(
        self,
        instance: Instance,
        lam0: float,
        density0: Optional[float] = None,
    ):
        if lam0 <= 0:
            raise ValueError(f"lambda0 must be positive, got {lam0}")
        self.instance = instance
        self.lam0 = float(lam0)
        if density0 is None:
            span = instance.span()
            density0 = len(instance) / span if span > 0 else float(
                len(instance)
            )
        if density0 <= 0:
            raise ValueError(f"density0 must be positive, got {density0}")
        self.density0 = float(density0)
        self._radii: Dict[Tuple[int, str], float] = {}
        for post in instance.posts:
            for label in post.labels:
                self._radii[(post.uid, label)] = self._compute(post, label)
        super().__init__(
            radius_fn=lambda post, label: self._radii[(post.uid, label)],
            upper_bound=self.lam0 * math.e,
        )

    def _compute(self, post: Post, label: str) -> float:
        lo, hi = window(
            self.instance.posting(label).values, post.value, self.lam0
        )
        local_density = (hi - lo) / (2.0 * self.lam0)
        return self.lam0 * math.exp(1.0 - local_density / self.density0)

    def radius_of(self, uid: int, label: str) -> float:
        """The precomputed radius for a (post uid, label) pair."""
        return self._radii[(uid, label)]


def _variable_family(instance: Instance, model: CoverageModel):
    family = [
        covered_pairs_by(instance, post, model) for post in instance.posts
    ]
    universe = {
        (post.uid, label)
        for post in instance.posts
        for label in post.labels
    }
    return family, universe


def _scan_variable_posts(
    instance: Instance, model: CoverageModel
) -> List[Post]:
    picks: List[Post] = []
    upper = model.max_radius()
    for label in sorted(instance.labels):
        plist = instance.posting(label)
        n = len(plist)
        i = 0
        while i < n:
            target = plist[i]
            # Candidates able to cover the leftmost uncovered post: any
            # label-carrying post whose own radius spans the gap.
            lo, hi = window(plist.values, target.value, upper)
            best: Optional[Post] = None
            best_reach = float("-inf")
            for candidate in plist.posts[lo:hi]:
                radius = model.radius(candidate, label)
                if abs(candidate.value - target.value) > radius:
                    continue
                reach = candidate.value + radius
                if reach > best_reach:
                    best_reach = reach
                    best = candidate
            if best is None:
                # A post always covers itself (radius > 0), so this would be
                # a model bug; selecting the target keeps the cover valid.
                best = target
            picks.append(best)
            # Coverage by the pick is contiguous from the target onward, so
            # a single forward skip reaches the next uncovered post.
            while i < n and model.covers(best, label, plist[i]):
                i += 1
    return picks


def scan_variable(instance: Instance, model: CoverageModel) -> Solution:
    """Scan under directional (variable-lambda) coverage; bound ``s``."""
    return timed_solution(
        "scan_variable", _scan_variable_posts, instance, model
    )


def _greedy_variable_posts(
    instance: Instance, model: CoverageModel
) -> List[Post]:
    family, universe = _variable_family(instance, model)
    chosen = greedy_set_cover(family, universe=universe)
    return [instance.posts[k] for k in chosen]


def greedy_sc_variable(instance: Instance, model: CoverageModel) -> Solution:
    """GreedySC under directional (variable-lambda) coverage."""
    return timed_solution(
        "greedy_sc_variable", _greedy_variable_posts, instance, model
    )


def _exact_variable_posts(
    instance: Instance, model: CoverageModel, node_budget: int
) -> List[Post]:
    family, universe = _variable_family(instance, model)
    chosen = exact_set_cover(family, universe=universe,
                             node_budget=node_budget)
    return [instance.posts[k] for k in chosen]


def exact_variable(
    instance: Instance, model: CoverageModel, node_budget: int = 2_000_000
) -> Solution:
    """Minimum directional cover via exact set cover (small instances)."""
    return timed_solution(
        "exact_variable", _exact_variable_posts, instance, model, node_budget
    )
