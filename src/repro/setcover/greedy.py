"""Greedy set cover.

The classical rule: repeatedly pick the set covering the most still-uncovered
elements.  Feige [12 in the paper] shows this is a ``ln k`` approximation
(``k`` the largest set size) and that no polynomial algorithm does better in
general.

Two candidate-maintenance strategies are provided because the paper's
Section 7.3 explicitly discusses the choice:

* ``strategy="lazy_heap"`` (the default) — a max-heap with lazily
  re-validated stale entries (the standard "lazy deletion" trick).
* ``strategy="rescan"`` — each round linearly scans all sets for the largest
  residual one.  This is what the authors report using, after finding the
  heap's delete/re-insert churn slower on bursty data; the figure drivers
  pin it to reproduce that implementation, and the tests use it as the
  oracle for the heap.

Both pick the same sets in the same order (ties go to the lowest index).
GreedySC's rescan materialises its family and calls this function; its
default lazy heap runs a pruned bucket queue over per-label
lambda-windows instead, with the same picks in the same order
(:mod:`repro.core.greedy_sc`), and the ablation benchmark
:mod:`benchmarks.test_ablation_greedy_heap` compares the two.
"""

from __future__ import annotations

import heapq
from typing import Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from ..observability import facade as _obs

__all__ = ["greedy_set_cover"]


def _normalise(
    sets: Sequence[Iterable[Hashable]],
) -> Tuple[List[Set[Hashable]], Set[Hashable]]:
    families = [set(s) for s in sets]
    universe: Set[Hashable] = set()
    for family in families:
        universe |= family
    return families, universe


def greedy_set_cover(
    sets: Sequence[Iterable[Hashable]],
    universe: Optional[Iterable[Hashable]] = None,
    strategy: str = "lazy_heap",
) -> List[int]:
    """Greedily cover ``universe`` with the given family of sets.

    Parameters
    ----------
    sets:
        The family; element ``i`` of the result indexes into this sequence.
    universe:
        Elements that must be covered.  Defaults to the union of ``sets``.
        Must be coverable (a subset of the union) or ``ValueError`` is
        raised.
    strategy:
        ``"lazy_heap"`` (the default) or ``"rescan"`` (the paper's
        implementation); both return the same picks in the same order.

    Returns
    -------
    list of int
        Indices of the chosen sets, in pick order.  Ties are broken by the
        lowest index, making the output deterministic.
    """
    families, implied = _normalise(sets)
    if universe is None:
        remaining = implied
    else:
        remaining = set(universe)
        if not remaining <= implied:
            missing = sorted(remaining - implied)[:5]
            raise ValueError(f"universe has uncoverable elements: {missing}")

    if strategy == "rescan":
        return _greedy_rescan(families, remaining)
    if strategy == "lazy_heap":
        return _greedy_lazy_heap(families, remaining)
    raise ValueError(f"unknown strategy {strategy!r}")


def _greedy_rescan(
    families: List[Set[Hashable]], remaining: Set[Hashable]
) -> List[int]:
    chosen: List[int] = []
    residual = [family & remaining for family in families]
    rounds = 0
    scanned = 0
    updates = 0
    while remaining:
        rounds += 1
        best_idx = -1
        best_gain = 0
        for idx, family in enumerate(residual):
            gain = len(family)
            if gain > best_gain:
                best_gain = gain
                best_idx = idx
        scanned += len(residual)
        if best_idx < 0:
            break  # nothing left can make progress (already validated above)
        chosen.append(best_idx)
        # Copy before subtracting: residual[best_idx] is aliased by `newly`
        # and would otherwise be emptied mid-loop, leaving later sets stale.
        newly = set(residual[best_idx])
        remaining -= newly
        for family in residual:
            if family:
                family -= newly
                updates += 1
    if _obs.enabled():
        _obs.count("setcover.rescan.rounds", rounds)
        _obs.count("setcover.rescan.sets_scanned", scanned)
        _obs.count("setcover.rescan.residual_updates", updates)
    return chosen


def _greedy_lazy_heap(
    families: List[Set[Hashable]], remaining: Set[Hashable]
) -> List[int]:
    residual = [family & remaining for family in families]
    # Max-heap via negated gains; entries go stale as elements get covered
    # and are re-validated on pop.
    heap: List[Tuple[int, int]] = [
        (-len(family), idx) for idx, family in enumerate(residual) if family
    ]
    heapq.heapify(heap)
    chosen: List[int] = []
    pops = 0
    revalidations = 0
    while remaining and heap:
        pops += 1
        neg_gain, idx = heapq.heappop(heap)
        residual[idx] &= remaining
        actual = len(residual[idx])
        if actual == 0:
            continue
        if -neg_gain != actual:
            revalidations += 1
            heapq.heappush(heap, (-actual, idx))
            continue
        # The rescan's pick: gains only shrink, so every stored gain is at
        # least its set's current gain, and the heap pops in (-stored
        # gain, idx) order.  A popped entry whose stored gain is current
        # therefore has the largest current gain, and any other set with
        # that gain has a larger index: the lowest-index argmax.
        chosen.append(idx)
        remaining -= residual[idx]
    if _obs.enabled():
        _obs.count("setcover.lazy_heap.pops", pops)
        _obs.count("setcover.lazy_heap.revalidations", revalidations)
        _obs.count("setcover.lazy_heap.picks", len(chosen))
    return chosen
