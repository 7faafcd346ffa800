"""Algorithm GreedySC: MQDP via greedy set cover (Section 4.2).

The transform: each element of the set-cover universe is a pair
``<P_i, a>`` with ``a in label(P_i)``; the set ``S_k`` induced by post
``P_k`` contains every pair ``<P_i, a>`` such that ``a in label(P_k)`` and
``|t_k - t_i| <= lambda`` — i.e. everything that *selecting* ``P_k`` would
lambda-cover.  Greedy set cover on this family yields a
``ln(|P| |L|)``-approximate MQDP solution; in practice ``|P| >> |L|`` so the
bound is essentially ``ln |P|``.

The family is materialised with per-label two-pointer windows over the
posting lists (the same ranges Algorithm 2 enumerates), then handed to
:func:`repro.setcover.greedy_set_cover`.  Its greedy stage defaults to the
lazy heap, which makes the same picks in the same order as the linear
rescan the paper's implementation note prefers on bursty data (Section
7.3).  The figure drivers pass ``strategy="rescan"`` to reproduce that
implementation; the ablation benchmark times both.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..observability import facade as _obs
from ..setcover import greedy_set_cover
from .instance import Instance
from .post import Post
from .solution import Solution, timed_solution

__all__ = ["greedy_sc", "build_setcover_family"]


def build_setcover_family(
    instance: Instance,
) -> Tuple[List[Set[Tuple[int, str]]], Set[Tuple[int, str]]]:
    """Materialise the set-cover family induced by an MQDP instance.

    Returns ``(family, universe)`` where ``family[k]`` is the pair set of
    ``instance.posts[k]`` and the universe is every ``(uid, label)`` pair.
    Cost is linear in the total number of within-lambda same-label pairs.
    """
    lam = instance.lam
    posts = instance.posts
    index_of: Dict[int, int] = {p.uid: k for k, p in enumerate(posts)}
    family: List[Set[Tuple[int, str]]] = [set() for _ in posts]
    universe: Set[Tuple[int, str]] = set()
    # candidate pairs enumerated — the builder's unit of work; one int
    # add per window is noise next to the inner set updates
    enumerated = 0

    for label in instance.labels:
        plist = instance.posting(label)
        values = [p.value for p in plist]
        n = len(values)
        hi = 0
        for j in range(n):
            universe.add((plist[j].uid, label))
            # advance hi to the last index within lambda of j
            if hi < j:
                hi = j
            while hi + 1 < n and values[hi + 1] - values[j] <= lam:
                hi += 1
            enumerated += hi - j + 1
            # posts j..hi mutually relevant: each covers the others' pairs
            pair_j = (plist[j].uid, label)
            set_j = family[index_of[plist[j].uid]]
            for i in range(j, hi + 1):
                pair_i = (plist[i].uid, label)
                set_j.add(pair_i)
                family[index_of[plist[i].uid]].add(pair_j)
    if _obs.enabled():
        _obs.count("greedy_sc.family_pairs_enumerated", enumerated)
        _obs.count("greedy_sc.universe_size", len(universe))
    return family, universe


def _greedy_posts(
    instance: Instance, strategy: str, engine: str
) -> List[Post]:
    if engine == "auto":
        from ..engine.auto import choose_engine

        engine = choose_engine(instance)
    if engine == "numpy":
        from .fastpath import build_family_encoded

        family, universe, _ = build_family_encoded(instance)
    elif engine == "python":
        family, universe = build_setcover_family(instance)
    else:
        raise ValueError(f"unknown engine {engine!r}")
    chosen = greedy_set_cover(family, universe=universe, strategy=strategy)
    return [instance.posts[k] for k in chosen]


def greedy_sc(
    instance: Instance,
    strategy: str = "lazy_heap",
    engine: str = "auto",
) -> Solution:
    """Algorithm GreedySC.

    Parameters
    ----------
    instance:
        The MQDP instance.
    strategy:
        Candidate maintenance for the underlying greedy set cover:
        ``"lazy_heap"`` (the default) or ``"rescan"`` (the paper's
        choice).  Both make the same picks in the same order.
    engine:
        Family construction: ``"python"`` (the paper's Algorithm 2 shape)
        or ``"numpy"`` (vectorised, integer-encoded pairs — identical
        picks, see :mod:`repro.core.fastpath`).  The default ``"auto"``
        estimates the instance's within-lambda pair count and picks the
        cheaper builder per instance (:mod:`repro.engine.auto`) — the
        builders are pick-identical, so only speed is at stake.
    """
    return timed_solution(
        "greedy_sc", _greedy_posts, instance, strategy, engine
    )
