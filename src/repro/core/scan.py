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

Each algorithm has one core (``_scan_posts``, ``_scan_plus_posts``). It
walks per-label sorted values and, position for position, a *handle* that
it returns for a pick, and reads a picked handle's label set.  On an
:class:`Instance` the handles are the posting lists' own posts; on an
:class:`InstanceColumns` (a digest decoded off the wire, or a router's
merge of scatter legs) they are row numbers, so only the picks become
posts (:meth:`InstanceColumns.posts_at`).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, \
    Optional, Sequence, Tuple, Union

from ..observability import facade as _obs
from .instance import Instance, InstanceColumns, PostingList, window
from .post import Post
from .solution import Solution, timed_solution

__all__ = ["scan", "scan_plus", "scan_label", "order_labels"]

# what Scan and Scan+ solve: an instance, or an encoded one's columns
Source = Union[Instance, InstanceColumns]
# one label's sorted values and, position for position, their handles
Run = Tuple[Sequence[float], Sequence[Any]]

_LABELS = attrgetter("labels")


def _walk(
    values: Sequence[float],
    lam: float,
    is_covered: Optional[Callable[[int], bool]] = None,
) -> Iterator[int]:
    """The pick positions of the optimal cover of one sorted value list.

    Takes the leftmost position ``is_covered`` does not report covered,
    yields the furthest position within ``lam`` of it, and resumes past
    everything that pick covers.  ``is_covered`` is asked lazily, after
    the caller has handled the previous pick.
    """
    n = len(values)
    i = 0
    while i < n:
        if is_covered is not None and is_covered(i):
            i += 1
            continue
        left = values[i]
        # Furthest post within lambda of the leftmost uncovered post: it
        # covers `left`, everything in between, and lambda to its right.
        j = i
        while j + 1 < n and values[j + 1] - left <= lam:
            j += 1
        yield j
        # Skip everything the pick covers.
        picked = values[j]
        i = j + 1
        while i < n and values[i] - picked <= lam:
            i += 1


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
        uses it to strike pairs covered by earlier labels' picks.
    on_pick:
        Callback invoked with each picked post, before the walk goes on.

    Returns
    -------
    list of Post
        The picks for this label, in time order.  Without ``is_covered``
        this is an *optimal* cover of the list (proved in Section 4.3).
    """
    picks: List[Post] = []
    posts = plist.posts
    for j in _walk(plist.values, lam, is_covered):
        picked = posts[j]
        picks.append(picked)
        if on_pick is not None:
            on_pick(picked)
    return picks


def _run(source: Source, label: str) -> Run:
    """A label's run: an instance's posting list, its values and posts,
    or the columns' values and row numbers."""
    if isinstance(source, InstanceColumns):
        return source.postings[label]
    plist = source.posting(label)
    return plist.values, plist.posts


def _as_posts(source: Source, picks: List[Any]) -> List[Post]:
    """The picked handles as posts: an instance's handles are posts, and
    columns build one post per distinct picked row, in row order."""
    if isinstance(source, InstanceColumns):
        return list(source.posts_at(sorted(set(picks))))
    return picks


def order_labels(instance: Source, order: str = "sorted") -> List[str]:
    """Resolve a label processing order for Scan/Scan+.

    ``"sorted"`` (default, deterministic), ``"longest_first"`` and
    ``"shortest_first"`` order by posting-list length — the ablation knob for
    Scan+'s sensitivity to label order.
    """
    labels = sorted(instance.labels)
    if order == "sorted":
        return labels
    if order == "longest_first":
        return sorted(labels, key=lambda a: (-len(_run(instance, a)[0]), a))
    if order == "shortest_first":
        return sorted(labels, key=lambda a: (len(_run(instance, a)[0]), a))
    raise ValueError(f"unknown label order {order!r}")


def _window_advances(source: Source, label_order: Sequence[str]) -> int:
    """Posting-list index advances of one Scan or Scan+ pass.

    :func:`_walk` advances its index past every position exactly once
    (a pick round's ``j`` steps are matched by the jump to ``j + 1``),
    so the count — the ``s|P|`` of the ``O(s|P|)`` bound — is the summed
    length of the processed posting lists.
    """
    return sum(len(_run(source, label)[0]) for label in label_order)


def _scan_posts(instance: Source, label_order: Sequence[str]) -> List[Post]:
    """Scan's core: every label's optimal cover."""
    # _run inlined: the disabled-observability overhead gate times this
    # loop against scan_label's on a small instance
    columns = isinstance(instance, InstanceColumns)
    run_of = instance.postings.__getitem__ if columns else instance.posting
    lam = instance.lam
    picks: List[Any] = []
    for label in label_order:
        run = run_of(label)
        values, handles = run if columns else (run.values, run.posts)
        for j in _walk(values, lam):
            picks.append(handles[j])
    if _obs.enabled():
        _obs.count("scan.window_advances",
                   _window_advances(instance, label_order))
        _obs.count("scan.labels_processed", len(label_order))
        _obs.count("scan.picks", len(picks))
    return _as_posts(instance, picks)


def _scan_plus_posts(
    instance: Source, label_order: Sequence[str]
) -> List[Post]:
    """Scan+'s core: Scan, striking each pick's reach from the labels
    still to come."""
    runs = {a: _run(instance, a) for a in label_order}
    if isinstance(instance, InstanceColumns):
        label_sets, masks = instance.label_sets, instance.masks

        def labels_of(row: int) -> FrozenSet[str]:
            return label_sets[masks[row]]
    else:
        labels_of = _LABELS
    lam = instance.lam
    # covered[a] is a bitmap over LP(a) positions marking pairs already
    # lambda-covered by picks made for earlier labels.
    covered: Dict[str, List[bool]] = {
        a: [False] * len(runs[a][0]) for a in label_order
    }
    # Striking is only useful for labels still to be processed: flags of
    # the current label are never consulted again past the pick's own
    # lambda window (the value-based advance skips it anyway), and flags
    # of earlier labels are never read again at all.  Restricting strikes
    # to strictly-later labels is therefore pick-preserving (asserted by
    # the full-strike reference parity test) and skips the dead work.
    label_rank = {a: rank for rank, a in enumerate(label_order)}
    struck = 0
    picks: List[Any] = []
    for rank, label in enumerate(label_order):
        values, handles = runs[label]
        for j in _walk(values, lam, covered[label].__getitem__):
            handle = handles[j]
            picks.append(handle)
            picked = values[j]
            for other_label in labels_of(handle):
                other_rank = label_rank.get(other_label)
                if other_rank is None or other_rank <= rank:
                    continue
                lo, hi = window(runs[other_label][0], picked, lam)
                struck += hi - lo
                covered[other_label][lo:hi] = [True] * (hi - lo)
    if _obs.enabled():
        _obs.count("scan_plus.window_advances",
                   _window_advances(instance, label_order))
        _obs.count("scan_plus.strike_positions", struck)
        _obs.count("scan_plus.labels_processed", len(label_order))
        _obs.count("scan_plus.picks", len(picks))
    return _as_posts(instance, picks)


def scan(instance: Source, label_order: str = "sorted") -> Solution:
    """Algorithm Scan: independent optimal per-label covering.

    Approximation bound ``s`` (max labels per post); time ``O(s |P|)``.
    ``instance`` may be an :class:`InstanceColumns`: then only the picks
    become posts.
    """
    labels = order_labels(instance, label_order)
    return timed_solution("scan", _scan_posts, instance, labels)


def scan_plus(instance: Source, label_order: str = "sorted") -> Solution:
    """Algorithm Scan+: Scan with cross-label coverage propagation.

    ``instance`` may be an :class:`InstanceColumns`, as for :func:`scan`.
    """
    labels = order_labels(instance, label_order)
    return timed_solution("scan+", _scan_plus_posts, instance, labels)
