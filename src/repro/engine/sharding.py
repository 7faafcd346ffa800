"""Why instances decompose at wide gaps, and the seam repair for when
they do not.

The 1-D structure the paper exploits in Scan (Section 4.3) makes MQDP
instances *decomposable*: coverage never reaches further than lambda
along the diversity dimension, so any gap in the global value sequence
strictly wider than lambda separates the instance into two halves that
share no coverage relation — for any label, under every solver in this
repository.  Solving the halves independently and taking the union is
exact:

* **Scan / Scan+** restart their greedy at the first post after a gap
  (the previous pick is more than lambda away), and no cross-label
  strike crosses a gap either — pick-for-pick parity.
* **GreedySC**'s set-cover family decomposes into independent blocks (no
  set spans a gap).  The global greedy's pick sequence restricted to a
  block *is* that block's own greedy sequence: a pick only changes
  residuals inside its block, and whenever the global argmax falls in a
  block it is that block's argmax under the shared lowest-index
  tie-break — so per-block greedy picks, concatenated, equal the global
  run's picks.

A gap of *exactly* lambda still couples the sides (the coverage test is
``<=``).  The same argument holds for blocks of labels instead of blocks
of values, which is why the cluster router's scatter-gather merge is
exact when no post spans two shards.

When blocks are *not* independent, a union of block-local picks is not
guaranteed to be a cover.  :func:`stitch_repair` re-verifies such a
union with the existing verifier and repairs any seam damage with the
optimal 1-D per-label greedy; the router's seam-free and degraded
merges use it.
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.coverage import uncovered_pairs, verify_cover
from ..core.instance import Instance, window
from ..core.post import Post

__all__ = ["stitch_repair"]


def _repair_label(
    instance: Instance, label: str, uncovered_uids: List[int]
) -> List[Post]:
    """Optimal 1-D greedy repair for one label's uncovered posts.

    Walks the uncovered posts left to right; for each leftmost uncovered
    one, picks the furthest posting-list member within lambda (the
    classical optimal move), which covers it and everything up to lambda
    to the pick's right.
    """
    lam = instance.lam
    plist = instance.posting(label)
    targets = sorted(
        (instance.post(uid).value, uid) for uid in uncovered_uids
    )
    picks: List[Post] = []
    idx = 0
    while idx < len(targets):
        # the target itself is in the window, so it is never empty
        best = plist[window(plist.values, targets[idx][0], lam)[1] - 1]
        picks.append(best)
        while idx < len(targets) and abs(targets[idx][0] - best.value) <= lam:
            idx += 1
    return picks


def stitch_repair(
    instance: Instance, picks: List[Post]
) -> Tuple[List[Post], int]:
    """Re-verify a merged cover of coupled blocks and repair seam damage.

    Runs the existing verifier machinery (:func:`uncovered_pairs`) over
    the full instance; any pair a seam left uncovered is repaired with
    the optimal per-label 1-D greedy, then the result is verified
    outright — an invalid cover can never escape this function.

    Returns ``(repaired_picks, repairs_added)``.
    """
    missing = uncovered_pairs(instance, picks)
    added = 0
    if missing:
        by_label: dict = {}
        for uid, label in missing:
            by_label.setdefault(label, []).append(uid)
        repaired = {p.uid: p for p in picks}
        for label in sorted(by_label):
            for post in _repair_label(instance, label, by_label[label]):
                if post.uid not in repaired:
                    repaired[post.uid] = post
                    added += 1
        picks = sorted(repaired.values(), key=lambda p: (p.value, p.uid))
    verify_cover(instance, picks)
    return list(picks), added
