"""Materialized λ-cover views with delta maintenance and bounded repair.

A :class:`CoverView` keeps a λ-cover for one ``(label-set, λ)`` pair
alive as the corpus changes, so ``digest()`` can read it instead of
re-running a batch solver.  The maintenance rules come straight from the
paper's Section 5 streaming theory:

* **insertion** is the instant-decision algorithm (``tau = 0``, bound
  ``2s``): an arriving post joins the cover iff one of its labels has no
  cover member within λ.  A post covers itself at distance 0, so the
  cover stays verifier-valid by construction;
* **window expiry** evicts cover members at the old end.  Evicting a
  member can only orphan (post, label) pairs within ±λ of it —
  StreamScan's locality argument — so repair is a *bounded local
  re-scan*: enumerate live posts in that neighborhood, re-select any
  whose labels went uncovered, in value order.  Each repair pick covers
  itself, so validity again holds by construction;
* **quality** is watched by a ledger.  Instant decisions guarantee
  ``2s``-competitiveness against the stream, not against batch OPT on
  the current window; when the maintained cover drifts past
  ``REBUILD_RATIO × baseline + REBUILD_SLACK`` (3 × baseline + 8;
  baseline = last batch solve's size), the view flags ``needs_rebuild``
  and the service routes the next read through the batch engine, which
  re-seeds the view.

Views never invent coverage state: they are *seeded* from a batch
solver's digest and only grow/shrink through the two delta rules above.
Freshness is epoch-disciplined exactly like the result cache — a view
is servable only when its epoch equals the registry's committed epoch.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..core.coverage import uncovered_pairs
from ..core.instance import window
from ..core.post import Post
from ..core.solution import Solution
from ..errors import ReproError
from .store import PostStore, StoreSnapshot

__all__ = ["CoverView", "REBUILD_RATIO", "REBUILD_SLACK", "ViewLedger"]

# the drift bound: a view past REBUILD_RATIO x its seeding solve's size
# + REBUILD_SLACK members needs a batch rebuild
REBUILD_RATIO = 3.0
REBUILD_SLACK = 8

# canonical post order
_ROW_KEY = operator.attrgetter("value", "uid")


@dataclass
class ViewLedger:
    """Monotone counters describing one view's maintenance history."""

    cold_builds: int = 0
    inserts: int = 0
    selected_inserts: int = 0
    expiries: int = 0
    expired_members: int = 0
    repairs: int = 0
    repaired_pairs: int = 0
    repair_candidates: int = 0
    rebuild_flags: int = 0
    reads: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "cold_builds": self.cold_builds,
            "inserts": self.inserts,
            "selected_inserts": self.selected_inserts,
            "expiries": self.expiries,
            "expired_members": self.expired_members,
            "repairs": self.repairs,
            "repaired_pairs": self.repaired_pairs,
            "repair_candidates": self.repair_candidates,
            "rebuild_flags": self.rebuild_flags,
            "reads": self.reads,
        }


class CoverView:
    """One maintained λ-cover over a label subset of a :class:`PostStore`.

    Parameters
    ----------
    store:
        The shared projected-post store (the view's source of truth for
        materialization and repair scans).
    labels:
        The view's label subset.  Cover members are relabeled to it.
    lam:
        The λ threshold.
    algorithm:
        The batch algorithm family this view stands in for — cold builds
        and rebuilds run it; reads advertise ``view:<algorithm>``.

    The view flags ``needs_rebuild`` once its cover exceeds
    ``REBUILD_RATIO * baseline + REBUILD_SLACK`` members, where baseline
    is the seeding batch solve's size.
    """

    def __init__(
        self,
        store: PostStore,
        labels: Iterable[str],
        lam: float,
        *,
        algorithm: str = "greedy_sc",
        dimension: str = "time",
    ):
        if not lam >= 0:  # refuses NaN too, as the Instance constructors do
            raise ReproError(f"lambda must be >= 0, got {lam}")
        self.store = store
        self.labels: FrozenSet[str] = frozenset(labels)
        self.lam = float(lam)
        self.algorithm = algorithm
        self.dimension = dimension
        # the maintained cover: uid -> relabeled member, plus per-label
        # sorted member values for O(log) coverage probes
        self._members: Dict[int, Post] = {}
        self._index: Dict[str, List[float]] = {}
        # read memoization: the last store snapshot, keyed on (store
        # version, mutation count), and the last cover solution, keyed
        # on the mutation count alone (it does not read the store).  A
        # read against an unchanged store and an unchanged cover is two
        # tuple compares — the near-O(1) hot path.
        self._mutations = 0
        self._snapshot: Optional[
            Tuple[Tuple[int, int], StoreSnapshot]
        ] = None
        self._solution: Optional[Tuple[int, Solution]] = None
        self.baseline_size: Optional[int] = None
        self.epoch = -1
        self.stale = True
        self.needs_rebuild = False
        # per-view window: the registry attaches the (label-set
        # specific) window at seed time; ``horizon`` is this view's own
        # old-end cutoff, which may sit *above* the store's physical
        # horizon when another view retains a wider window
        self.window: Optional[float] = None
        self.horizon: Optional[float] = None
        self.ledger = ViewLedger()

    # -- coverage probes ---------------------------------------------------

    def _covered(self, label: str, value: float) -> bool:
        lo, hi = window(self._index.get(label, ()), value, self.lam)
        return lo < hi

    def _member(self, post: Post) -> Post:
        """``post`` relabeled to the view's labels (itself when it
        carries no other label)."""
        if post.labels <= self.labels:
            return post
        return Post(uid=post.uid, value=post.value,
                    labels=post.labels & self.labels, text=post.text)

    def _select(self, post: Post) -> Post:
        member = self._member(post)
        self._members[member.uid] = member
        for label in member.labels:
            bisect.insort(self._index.setdefault(label, []), member.value)
        self._mutations += 1
        return member

    def _deselect(self, member: Post) -> None:
        # members may share a value: remove one copy of it
        for label in member.labels:
            values = self._index.get(label, [])
            idx = bisect.bisect_left(values, member.value)
            if idx < len(values) and values[idx] == member.value:
                del values[idx]
        self._mutations += 1

    # -- seeding -----------------------------------------------------------

    def seed(
        self,
        posts: Iterable[Post],
        baseline_size: int,
        epoch: int,
    ) -> None:
        """Adopt a batch solve's cover as the view state.

        ``posts`` must cover the store's current materialization of this
        view's labels (they come from a batch digest over the same
        corpus version).  Resets the drift baseline.

        One pass, with what :meth:`_select` leaves per post: each member
        relabeled to the view's labels and each value appended to its
        labels' lists, which are sorted once at the end (a solve's cover
        comes in value order, so the sorts find runs already in order).
        """
        members: Dict[int, Post] = {}
        index: Dict[str, List[float]] = {}
        for member in map(self._member, posts):
            members[member.uid] = member
            for label in member.labels:
                index.setdefault(label, []).append(member.value)
        for values in index.values():
            values.sort()
        self._members = members
        self._index = index
        self._snapshot = self._solution = None
        self._mutations += 1
        self.baseline_size = max(1, int(baseline_size))
        self.epoch = epoch
        self.stale = False
        self.needs_rebuild = False
        self.ledger.cold_builds += 1

    def invalidate(self) -> None:
        """Drop the maintained state; the next read must re-seed."""
        self._members = {}
        self._index = {}
        self._snapshot = self._solution = None
        self._mutations += 1
        self.stale = True
        self.needs_rebuild = False

    # -- delta maintenance -------------------------------------------------

    def apply_insert(self, post: Post) -> bool:
        """One post arrived in the store.  Instant decision: select it
        iff one of its (view-relevant) labels went uncovered.  Returns
        True when the post joined the cover."""
        relevant = post.labels & self.labels
        if not relevant or self.stale:
            return False
        if self.horizon is not None and post.value < self.horizon:
            return False  # already behind this view's own window
        self.ledger.inserts += 1
        if all(self._covered(a, post.value) for a in relevant):
            return False
        self._select(post)
        self.ledger.selected_inserts += 1
        self._check_drift()
        return True

    def apply_expire(self, removed: Iterable[Post]) -> int:
        """Posts left the window (already removed from the store).

        Evicts expired cover members and repairs locally: only pairs
        within ±λ of an evicted member can have lost coverage, so the
        re-scan is bounded by the neighborhood's live posts.  Returns
        the number of evicted members.
        """
        if self.stale:
            return 0
        evicted: List[Post] = []
        relevant = False
        for post in removed:
            if post.labels & self.labels:
                relevant = True
            member = self._members.pop(post.uid, None)
            if member is not None:
                evicted.append(member)
        if not relevant:
            return 0
        self.ledger.expiries += 1
        if not evicted:
            return 0
        for member in evicted:
            self._deselect(member)
        self.ledger.expired_members += len(evicted)
        # orphan scan: live posts within lambda of an evicted member,
        # restricted to the labels that member carried
        self._repair_around(evicted)
        self._check_drift()
        return len(evicted)

    def _repair_around(self, evicted: Iterable[Post]) -> int:
        """Bounded local repair after evictions: only pairs within ±λ of
        an evicted member can have lost coverage.  Candidates behind the
        view's own horizon are skipped — they are no longer part of this
        view's instance even when the store still holds them."""
        orphans: Dict[Tuple[float, int], Post] = {}
        for member in evicted:
            for label in member.labels:
                for post in self.store.posts_near(
                    label, member.value, self.lam
                ):
                    if self.horizon is not None \
                            and post.value < self.horizon:
                        continue
                    self.ledger.repair_candidates += 1
                    orphans.setdefault((post.value, post.uid), post)
        repaired = 0
        for key in sorted(orphans):
            post = orphans[key]
            relevant_labels = post.labels & self.labels
            lost = [
                a for a in relevant_labels
                if not self._covered(a, post.value)
            ]
            if lost:
                self._select(post)
                repaired += len(lost)
        if repaired:
            self.ledger.repairs += 1
            self.ledger.repaired_pairs += repaired
        return repaired

    def advance_horizon(self, cutoff: float) -> Optional[int]:
        """Slide this view's own window edge up to ``cutoff``.

        The store may retain older posts (another view's window is
        wider); this view stops *seeing* them: members below the cutoff
        are evicted with the usual bounded repair, and materialization
        clips the instance at the horizon.  Returns the number of
        evicted members, or ``None`` when the horizon did not move (the
        no-op fast path — the memoized read stays valid).
        """
        if self.horizon is not None and cutoff <= self.horizon:
            return None
        self.horizon = cutoff
        # the horizon itself changes the materialized instance even
        # when no member falls — always invalidate the memo
        self._mutations += 1
        if self.stale:
            return 0
        evicted = [
            member for member in self._members.values()
            if member.value < cutoff
        ]
        for member in evicted:
            del self._members[member.uid]
            self._deselect(member)
        if evicted:
            self.ledger.expiries += 1
            self.ledger.expired_members += len(evicted)
            self._repair_around(evicted)
        self._check_drift()
        return len(evicted)

    def _check_drift(self) -> None:
        if self.baseline_size is None:
            return
        bound = REBUILD_RATIO * self.baseline_size + REBUILD_SLACK
        if len(self._members) > bound and not self.needs_rebuild:
            self.needs_rebuild = True
            self.ledger.rebuild_flags += 1

    # -- read path ---------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._members)

    def drift_ratio(self) -> Optional[float]:
        if self.baseline_size is None:
            return None
        return len(self._members) / self.baseline_size

    def fresh(self, epoch: int) -> bool:
        """Servable at ``epoch``: seeded, not drifted, right version."""
        return not self.stale and not self.needs_rebuild \
            and self.epoch == epoch

    def cover_posts(self) -> Tuple[Post, ...]:
        """The maintained cover, in canonical ``(value, uid)`` order."""
        return tuple(sorted(self._members.values(), key=_ROW_KEY))

    def materialize(self) -> Tuple[StoreSnapshot, Solution]:
        """The view's answer: one store read at this view's horizon (its
        rows and exact counters; the instance is built only when
        something reads ``snapshot.instance``) and the maintained cover
        as a solution.  The snapshot is memoized on (store version,
        cover mutations), the solution on cover mutations alone."""
        self.ledger.reads += 1
        mutations = self._mutations
        solution = self._solution
        if solution is None or solution[0] != mutations:
            # cover_posts() is already unique and in canonical order
            solution = self._solution = (mutations, Solution(
                f"view:{self.algorithm}", self.cover_posts(), elapsed=0.0
            ))
        state = (self.store.version, mutations)
        snapshot = self._snapshot
        if snapshot is None or snapshot[0] != state:
            snapshot = self._snapshot = (state, self.store.snapshot(
                self.labels, self.lam, min_value=self.horizon
            ))
        return snapshot[1], solution[1]

    def verify(self) -> List[Tuple[int, str]]:
        """Uncovered (uid, label) pairs of the maintained cover against
        the store's current state — empty iff the view is λ-valid."""
        instance = self.store.materialize(
            self.labels, self.lam, min_value=self.horizon
        )
        return uncovered_pairs(instance, self.cover_posts())

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe per-view stats for ``service.introspect()``."""
        return {
            "labels": sorted(self.labels),
            "lam": self.lam,
            "algorithm": self.algorithm,
            "dimension": self.dimension,
            "size": len(self._members),
            "baseline_size": self.baseline_size,
            "drift_ratio": self.drift_ratio(),
            "epoch": self.epoch,
            "stale": self.stale,
            "needs_rebuild": self.needs_rebuild,
            "window": self.window,
            "horizon": self.horizon,
            "ledger": self.ledger.as_dict(),
        }
