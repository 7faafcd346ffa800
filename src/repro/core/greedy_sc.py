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
deletes them.  The picks are those of the paper's rescan, in the same
order (the lowest-index post of largest gain, every round), from a
queue that does less than a heap of every post:

* it leaves out posts that cannot win: a single-label post whose
  window ends where its label-predecessor's does has its window inside
  that lower-index post's, so it never has a gain the predecessor lacks
  (``docs/algorithms.md`` gives the argument);
* it is a bucket queue: one list of rows per stored gain, read from the
  highest non-empty bucket in index order, so it pops in the
  ``(-gain, index)`` order of :func:`repro.setcover.greedy_set_cover`'s
  lazy heap.

The core reads per-label runs, each label's sorted values and the rows
that carry them, so it solves an :class:`InstanceColumns` (a router's
merge of scatter legs) as it solves an :class:`Instance`, and builds a
post only for each pick (:meth:`InstanceColumns.posts_at`).

``strategy="rescan"`` reproduces the paper's implementation (Section
7.3): it materialises the family with per-label two-pointer windows
(:func:`build_setcover_family`, or the numpy builder of
:mod:`repro.core.fastpath`, as ``engine`` says) and hands it to
:func:`repro.setcover.greedy_set_cover`.  The figure drivers and the
oracle tests run it; the ablation benchmark times both.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import nan
from operator import attrgetter
from typing import Dict, Iterable, List, Set, Tuple, Union

# Imported with the module, not on the first rescan: the engine package
# loads numpy, and a lazy import would charge that to the first timed
# solve.  Called through the module so a patched ``choose_engine`` is seen.
from ..engine import auto as _auto
from ..observability import facade as _obs
from ..setcover import greedy_set_cover
from .instance import Instance, InstanceColumns
from .post import Post
from .solution import Solution, timed_solution

__all__ = ["greedy_sc", "build_setcover_family"]

# what the lazy heap solves: an instance, or an encoded one's columns
Source = Union[Instance, InstanceColumns]
# one label's sorted values and, position for position, their rows
Run = Tuple[List[float], Iterable[int]]
# one label's uncovered positions, and the first and last a row covers
Window = Tuple[List[int], int, int]

_UID = attrgetter("uid")


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


def _runs(source: Source) -> Tuple[int, Iterable[Run]]:
    """The row count and per-label runs of ``source``.

    Columns keep their runs (:attr:`InstanceColumns.postings`).  An
    instance's rows are its posts' indices, looked up lazily, so the
    lookups happen inside the one pass of :func:`_windows`.
    """
    if isinstance(source, InstanceColumns):
        return len(source.uids), source.postings.values()
    posts = source.posts
    index_of = dict(zip(map(_UID, posts), range(len(posts))))
    row_of = index_of.__getitem__
    return len(posts), (
        (plist.values, map(row_of, map(_UID, plist.posts)))
        for plist in map(source.posting, source.labels)
    )


def _windows(
    lam: float, size: int, runs: Iterable[Run]
) -> Tuple[List[Tuple[Window, ...]], List[int], int]:
    """Every row's lambda-windows and gain, in one pass over the runs.

    Returns ``(windows, gains, pairs)``.  ``windows[k]`` is a tuple of
    one ``(uncovered, lo, hi)`` per label of row ``k``: ``uncovered`` is
    its label's sorted list of uncovered posting positions, shared by
    the label's rows, and the row covers positions ``lo..hi``.
    ``gains[k]`` is the number of pairs the row covers, or 0 when it
    cannot win (see below); ``pairs`` is the universe size.  Tuples, not
    lists: CPython (3.11) reuses freed tuples without counting them for a
    collection, and a list per row set off about two gen-0 collections
    per solve on the 1,443-post day slice.

    The edges are the family builder's comparisons, the larger value
    minus the smaller against ``lam``, never a bisect on ``v +- lam``
    (which rounds).  Float subtraction is monotone, so the positions on
    each side of ``j`` form one run, and both edges only move right as
    ``j`` does.  A NaN past the last value ends the right edge's walk
    (no comparison with NaN holds).

    A single-label row whose window ends where its label-predecessor's
    does has its window inside that lower-index row's: whenever it has
    the largest gain the predecessor has it too and wins the tie, so the
    rescan never picks it, and its gain is set to 0.
    """
    windows: List[Tuple[Window, ...]] = [()] * size
    gains = [0] * size
    dominated: List[int] = []
    pairs = 0
    for values, rows in runs:
        uncovered = list(range(len(values)))
        pairs += len(values)
        ahead = values + [nan]
        lo = hi = 0
        last = -1
        j = 0
        for k, v in zip(rows, values):
            while lo < j and not v - values[lo] <= lam:
                lo += 1
            if hi < j:
                hi = j
            while ahead[hi + 1] - v <= lam:
                hi += 1
            held = windows[k]
            if not held and hi == last:
                dominated.append(k)
            windows[k] = held + ((uncovered, lo, hi),)
            gains[k] += hi - lo + 1
            last = hi
            j += 1
    for k in dominated:
        if len(windows[k]) == 1:
            gains[k] = 0
    return windows, gains, pairs


def _windowed_lazy_heap(source: Source) -> List[int]:
    """GreedySC's greedy stage over per-label lambda-windows.

    Returns rows of ``source`` (indices into ``instance.posts``) in pick
    order: the picks of ``greedy_set_cover(*build_setcover_family(
    instance), strategy="rescan")``.
    """
    size, runs = _runs(source)
    windows, gains, remaining = _windows(source.lam, size, runs)
    pairs = remaining
    # buckets[g]: the rows whose stored gain is g.  Bucket 0 holds the
    # rows left out, and is never read.
    buckets: List[List[int]] = [[] for _ in range(max(gains, default=0) + 1)]
    for k, gain in enumerate(gains):
        buckets[gain].append(k)
    chosen: List[int] = []
    revalidations = 0
    emptied = 0
    top = len(buckets) - 1
    # The rescan's pick: gains only shrink, so every stored gain is at
    # least its row's current gain, and the queue pops in (-stored gain,
    # index) order.  A popped row whose stored gain is current therefore
    # has the largest current gain, and any other row with that gain has
    # a larger index: the lowest-index argmax.  A stale row goes to a
    # lower bucket, never to this one or above, so the top bucket takes
    # no row while it is read: one sort puts it in index order.
    while remaining and top:
        bucket = buckets[top]
        bucket.sort()
        for k in bucket:
            held = windows[k]
            gain = 0
            for uncovered, lo, hi in held:
                gain += bisect_right(uncovered, hi) \
                    - bisect_left(uncovered, lo)
            if gain == top:
                chosen.append(k)
                remaining -= gain
                for uncovered, lo, hi in held:
                    del uncovered[
                        bisect_left(uncovered, lo):bisect_right(uncovered, hi)
                    ]
                if not remaining:
                    break
            elif gain:
                revalidations += 1
                buckets[gain].append(k)
            else:
                emptied += 1
        top -= 1
    if _obs.enabled():
        _obs.count("greedy_sc.windows", pairs)
        _obs.count("greedy_sc.heap.pops",
                   len(chosen) + revalidations + emptied)
        _obs.count("greedy_sc.heap.revalidations", revalidations)
        _obs.count("greedy_sc.heap.picks", len(chosen))
    return chosen


def _greedy_posts(
    source: Source, strategy: str, engine: str
) -> List[Post]:
    if engine not in ("auto", "python", "numpy"):
        raise ValueError(f"unknown engine {engine!r}")
    if strategy == "lazy_heap":
        chosen = _windowed_lazy_heap(source)
        if isinstance(source, InstanceColumns):
            return list(source.posts_at(chosen))
    elif strategy == "rescan":
        if isinstance(source, InstanceColumns):
            source = source.instance
        if engine == "auto":
            engine = _auto.choose_engine(source)
        if engine == "numpy":
            from .fastpath import build_family_encoded

            family, universe, _ = build_family_encoded(source)
        else:
            family, universe = build_setcover_family(source)
        chosen = greedy_set_cover(family, universe=universe,
                                  strategy="rescan")
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    posts = source.posts
    return [posts[k] for k in chosen]


def greedy_sc(
    instance: Source,
    strategy: str = "lazy_heap",
    engine: str = "auto",
) -> Solution:
    """Algorithm GreedySC.

    Parameters
    ----------
    instance:
        The MQDP instance, or an :class:`InstanceColumns`: the lazy heap
        then builds only the picks' posts, and the rescan solves the
        instance the columns encode.
    strategy:
        ``"lazy_heap"`` (the default) runs a pruned bucket queue over
        per-label lambda-windows and builds no family; ``"rescan"``
        materialises the family and rescans it every round (the paper's
        choice).  Both make the same picks in the same order.
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
