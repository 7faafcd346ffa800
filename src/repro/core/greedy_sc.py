"""Algorithm GreedySC: MQDP via greedy set cover (Section 4.2).

The transform: each element of the set-cover universe is a pair
``<P_i, a>`` with ``a in label(P_i)``; the set ``S_k`` induced by post
``P_k`` contains every pair ``<P_i, a>`` such that ``a in label(P_k)`` and
``|t_k - t_i| <= lambda`` — i.e. everything that *selecting* ``P_k`` would
lambda-cover.  Greedy set cover on this family yields a
``ln(|P| |L|)``-approximate MQDP solution; in practice ``|P| >> |L|`` so the
bound is essentially ``ln |P|``.

Restricted to one label ``a``, ``S_k`` is one contiguous window of the
sorted posting list ``LP(a)``.  The default ``strategy="lazy_heap"``
therefore never materialises the family: each label keeps the sorted
positions of its still-uncovered pairs, a post's gain is the number of
those positions inside its windows (two bisects per window), and a pick
deletes them.  The heap and its revalidation rule are those of
:func:`repro.setcover.greedy_set_cover`'s lazy heap, so the picks are the
same, in the same order, as that heap's over the materialised family and
as the linear rescan the paper's implementation note prefers on bursty
data (Section 7.3).

``strategy="rescan"`` reproduces that implementation: it materialises the
family with per-label two-pointer windows (:func:`build_setcover_family`,
or the numpy builder of :mod:`repro.core.fastpath`, as ``engine`` says)
and hands it to :func:`repro.setcover.greedy_set_cover`.  The figure
drivers and the oracle tests run it; the ablation benchmark times both.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from typing import Dict, List, Set, Tuple

# Imported with the module, not on the first rescan: the engine package
# loads numpy, and a lazy import would charge that to the first timed
# solve.  Called through the module so a patched ``choose_engine`` is seen.
from ..engine import auto as _auto
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
        values = plist.values
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


def _label_windows(values: List[float], lam: float) -> List[Tuple[int, int]]:
    """Per position ``j`` of one label's sorted posting values, the
    positions ``[lo, hi]`` whose pairs post ``j`` covers.

    These are the family builder's comparisons, the larger value minus
    the smaller against ``lam``, never a bisect on ``v +- lam`` (which
    rounds).  Float subtraction is monotone, so the positions on each
    side of ``j`` form one run; ``j``'s own pair is always in the window,
    as the builder's self-pair is.
    """
    windows: List[Tuple[int, int]] = []
    n = len(values)
    lo = hi = 0
    for j, v in enumerate(values):
        while lo < j and not v - values[lo] <= lam:
            lo += 1
        if hi < j:
            hi = j
        while hi + 1 < n and values[hi + 1] - v <= lam:
            hi += 1
        windows.append((lo, hi))
    return windows


def _windowed_lazy_heap(instance: Instance) -> List[int]:
    """The lazy heap over per-label lambda-windows.

    Returns indices into ``instance.posts`` in pick order: the picks of
    ``greedy_set_cover(*build_setcover_family(instance),
    strategy="lazy_heap")``, with the same pops and revalidations.
    """
    posts = instance.posts
    index_of: Dict[int, int] = {p.uid: k for k, p in enumerate(posts)}
    # windows[k]: per label of post k, that label's sorted list of
    # uncovered posting positions and the positions [lo, hi] the post
    # covers; the lists are shared by every post of the label
    windows: List[List[Tuple[List[int], int, int]]] = [[] for _ in posts]
    gains = [0] * len(posts)
    remaining = 0
    for label in instance.labels:
        plist = instance.posting(label)
        uncovered = list(range(len(plist)))
        remaining += len(plist)
        for post, (lo, hi) in zip(
            plist.posts, _label_windows(plist.values, instance.lam)
        ):
            k = index_of[post.uid]
            windows[k].append((uncovered, lo, hi))
            gains[k] += hi - lo + 1
    pairs = remaining

    heap = [(-gain, k) for k, gain in enumerate(gains) if gain]
    heapq.heapify(heap)
    chosen: List[int] = []
    pops = 0
    revalidations = 0
    while remaining and heap:
        pops += 1
        neg_gain, k = heapq.heappop(heap)
        gain = 0
        for uncovered, lo, hi in windows[k]:
            gain += bisect_right(uncovered, hi) - bisect_left(uncovered, lo)
        if gain == 0:
            continue
        if -neg_gain != gain:
            revalidations += 1
            heapq.heappush(heap, (-gain, k))
            continue
        # The rescan's pick: gains only shrink, so every stored gain is at
        # least its set's current gain, and the heap pops in (-stored
        # gain, idx) order.  A popped entry whose stored gain is current
        # therefore has the largest current gain, and any other set with
        # that gain has a larger index: the lowest-index argmax.
        chosen.append(k)
        remaining -= gain
        for uncovered, lo, hi in windows[k]:
            del uncovered[
                bisect_left(uncovered, lo):bisect_right(uncovered, hi)
            ]
    if _obs.enabled():
        _obs.count("greedy_sc.windows", pairs)
        _obs.count("greedy_sc.heap.pops", pops)
        _obs.count("greedy_sc.heap.revalidations", revalidations)
        _obs.count("greedy_sc.heap.picks", len(chosen))
    return chosen


def _greedy_posts(
    instance: Instance, strategy: str, engine: str
) -> List[Post]:
    if engine not in ("auto", "python", "numpy"):
        raise ValueError(f"unknown engine {engine!r}")
    if strategy == "lazy_heap":
        chosen = _windowed_lazy_heap(instance)
    elif strategy == "rescan":
        if engine == "auto":
            engine = _auto.choose_engine(instance)
        if engine == "numpy":
            from .fastpath import build_family_encoded

            family, universe, _ = build_family_encoded(instance)
        else:
            family, universe = build_setcover_family(instance)
        chosen = greedy_set_cover(family, universe=universe,
                                  strategy="rescan")
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
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
        ``"lazy_heap"`` (the default) runs a lazy heap over per-label
        lambda-windows and builds no family; ``"rescan"`` materialises
        the family and rescans it every round (the paper's choice).
        Both make the same picks in the same order.
    engine:
        The family builder of the rescan: ``"python"`` (the paper's
        Algorithm 2 shape) or ``"numpy"`` (vectorised, integer-encoded
        pairs — identical picks, see :mod:`repro.core.fastpath`).  The
        default ``"auto"`` estimates the instance's within-lambda pair
        count and picks the cheaper builder per instance
        (:mod:`repro.engine.auto`).  The lazy heap builds no family and
        ignores it; an unknown name raises ``ValueError`` either way.
    """
    return timed_solution(
        "greedy_sc", _greedy_posts, instance, strategy, engine
    )
