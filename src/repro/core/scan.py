"""Algorithm Scan and its Scan+ optimisation (Section 4.3).

Scan processes each label's posting list ``LP(a)`` independently with the
classical optimal greedy for 1-D interval covering: take the leftmost
uncovered post, pick the furthest post within ``lambda`` of it (that pick
covers everything in between and ``lambda`` to its right), repeat.  The union
over labels is an ``s``-approximation, where ``s`` is the maximum number of
labels per post, and the whole pass costs ``O(s |P|)``.

Scan+ (the paper's optimisation) exploits that a post picked for one label
also covers posts of its *other* labels: after each pick, the covered
``(post, label)`` pairs are struck from the still-unprocessed lists, so later
labels only pay for what remains.  The label processing order therefore
matters; it is exposed as a parameter and examined by the
``ablation_scan_order`` benchmark.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..observability import facade as _obs
from .instance import Instance, PostingList, window
from .post import Post
from .solution import Solution, timed_solution

__all__ = ["scan", "scan_plus", "scan_label", "order_labels"]


def scan_label(
    plist: PostingList,
    lam: float,
    is_covered: Optional[Callable[[int], bool]] = None,
    on_pick: Optional[Callable[[Post], None]] = None,
) -> List[Post]:
    """Optimally cover a single posting list (the inner loop of Scan).

    Parameters
    ----------
    plist:
        The label's time-sorted posting list.
    lam:
        Coverage threshold.
    is_covered:
        Optional predicate on the *index into plist*; posts reported covered
        are skipped as coverage targets (they can still be picked, since a
        pick is chosen for its reach, not its own coverage state).  Scan+
        supplies this to strike pairs covered by earlier labels' picks.
    on_pick:
        Callback invoked with each picked post, used by Scan+ to propagate
        cross-label coverage.

    Returns
    -------
    list of Post
        The picks for this label, in time order.  Without ``is_covered``
        this is an *optimal* cover of the list (proved in Section 4.3).
    """
    picks: List[Post] = []
    posts = plist.posts
    n = len(posts)
    i = 0
    while i < n:
        if is_covered is not None and is_covered(i):
            i += 1
            continue
        left = posts[i]
        # Furthest post within lambda of the leftmost uncovered post: it
        # covers `left`, everything in between, and lambda to its right.
        j = i
        while j + 1 < n and posts[j + 1].value - left.value <= lam:
            j += 1
        picked = posts[j]
        picks.append(picked)
        if on_pick is not None:
            on_pick(picked)
        # Skip everything the pick covers.
        i = j + 1
        while i < n and posts[i].value - picked.value <= lam:
            i += 1
    return picks


def order_labels(instance: Instance, order: str = "sorted") -> List[str]:
    """Resolve a label processing order for Scan/Scan+.

    ``"sorted"`` (default, deterministic), ``"longest_first"`` and
    ``"shortest_first"`` order by posting-list length — the ablation knob for
    Scan+'s sensitivity to label order.
    """
    labels = sorted(instance.labels)
    if order == "sorted":
        return labels
    if order == "longest_first":
        return sorted(labels, key=lambda a: (-len(instance.posting(a)), a))
    if order == "shortest_first":
        return sorted(labels, key=lambda a: (len(instance.posting(a)), a))
    raise ValueError(f"unknown label order {order!r}")


def _window_advances(instance: Instance, label_order: Sequence[str]) -> int:
    """Posting-list index advances of one Scan or Scan+ pass.

    :func:`scan_label` advances its index past every position exactly
    once (a pick round's ``j`` steps are matched by the jump to
    ``j + 1``), so the count — the ``s|P|`` of the ``O(s|P|)`` bound — is
    the summed length of the processed posting lists.
    """
    return sum(len(instance.posting(label)) for label in label_order)


def _scan_posts(instance: Instance, label_order: Sequence[str]) -> List[Post]:
    picks: List[Post] = []
    for label in label_order:
        picks.extend(scan_label(instance.posting(label), instance.lam))
    if _obs.enabled():
        _obs.count("scan.window_advances",
                   _window_advances(instance, label_order))
        _obs.count("scan.labels_processed", len(label_order))
        _obs.count("scan.picks", len(picks))
    return picks


def _scan_plus_posts(
    instance: Instance, label_order: Sequence[str]
) -> List[Post]:
    lam = instance.lam
    # covered[a] is a bitmap over LP(a) indices marking pairs already
    # lambda-covered by picks made for earlier labels.
    covered: Dict[str, List[bool]] = {
        a: [False] * len(instance.posting(a)) for a in instance.labels
    }
    # Striking is only useful for labels still to be processed: flags of
    # the current label are never consulted again past the pick's own
    # lambda window (the value-based advance skips it anyway), and flags
    # of earlier labels are never read again at all.  Restricting strikes
    # to strictly-later labels is therefore pick-preserving (asserted by
    # the full-strike reference parity test) and skips the dead work.
    label_rank = {a: rank for rank, a in enumerate(label_order)}
    # single-cell accumulator: positions struck (per pick per label —
    # far off the inner loop, so always counted)
    strike_window = [0]

    def mark(picked: Post, current_rank: int) -> None:
        for other_label in picked.labels:
            rank = label_rank.get(other_label)
            if rank is None or rank <= current_rank:
                continue
            lo, hi = window(
                instance.posting(other_label).values, picked.value, lam
            )
            strike_window[0] += hi - lo
            covered[other_label][lo:hi] = [True] * (hi - lo)

    picks: List[Post] = []
    for rank, label in enumerate(label_order):
        flags = covered[label]
        picks.extend(
            scan_label(
                instance.posting(label),
                lam,
                is_covered=lambda idx, flags=flags: flags[idx],
                on_pick=lambda post, rank=rank: mark(post, rank),
            )
        )
    if _obs.enabled():
        _obs.count("scan_plus.window_advances",
                   _window_advances(instance, label_order))
        _obs.count("scan_plus.strike_positions", strike_window[0])
        _obs.count("scan_plus.labels_processed", len(label_order))
        _obs.count("scan_plus.picks", len(picks))
    return picks


def scan(instance: Instance, label_order: str = "sorted") -> Solution:
    """Algorithm Scan: independent optimal per-label covering.

    Approximation bound ``s`` (max labels per post); time ``O(s |P|)``.
    """
    labels = order_labels(instance, label_order)
    return timed_solution("scan", _scan_posts, instance, labels)


def scan_plus(instance: Instance, label_order: str = "sorted") -> Solution:
    """Algorithm Scan+: Scan with cross-label coverage propagation."""
    labels = order_labels(instance, label_order)
    return timed_solution("scan+", _scan_plus_posts, instance, labels)
