"""MQDP problem instances.

An :class:`Instance` bundles everything an algorithm needs: the posts sorted
by diversity value, the distance threshold ``lam`` (the paper's lambda) and,
derived from those, the per-label posting lists ``LP(a)`` of Section 2.

Instances are immutable once built; algorithms never mutate them.  Posting
lists are computed once and shared, which mirrors the inverted-index feeding
described in the paper's system architecture (Figure 1).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Dict, Iterable, List, Mapping, Optional, \
    Sequence, Tuple

from ..errors import InvalidInstanceError
from .post import Post, make_posts

__all__ = ["Instance", "PostingList", "window"]

# The list-valued keys of the wire format, in the order from_dict unpacks
# them; every one but "labels" holds one row per post.
_WIRE_LISTS = ("labels", "uids", "values", "masks", "texts")


def window(
    values: Sequence[float], center: float, radius: float
) -> Tuple[int, int]:
    """The half-open range ``[lo, hi)`` of ``values`` whose members
    satisfy ``abs(v - center) <= radius`` — the coverage verifier's test.

    ``values`` is sorted ascending and holds no NaN; ``radius >= 0`` and
    may be infinite.  The bisects on ``center -+ radius`` only start the
    search, since those sums round: each edge then steps outward while
    the subtraction test holds and inward while it fails.  Float
    subtraction is monotone, so the members form one run and the steps
    stop at its exact ends.  An empty window has ``lo == hi``.
    """
    n = len(values)
    lo = bisect_left(values, center - radius)
    while lo > 0 and center - values[lo - 1] <= radius:
        lo -= 1
    while lo < n and not center - values[lo] <= radius:
        lo += 1
    hi = bisect_right(values, center + radius, lo)
    while hi < n and values[hi] - center <= radius:
        hi += 1
    while hi > lo and not values[hi - 1] - center <= radius:
        hi -= 1
    return lo, hi


class PostingList:
    """The time-sorted list ``LP(a)`` of posts relevant to one label.

    Iterates its posts in order (``Scan`` and friends) and exposes their
    sorted :attr:`values`, which :func:`window` and the two-pointer
    sweeps read for the window ``[value - lam, value + lam]``.
    """

    __slots__ = ("label", "posts", "_values")

    def __init__(self, label: str, posts: Sequence[Post]):
        self.label = label
        self.posts: Tuple[Post, ...] = tuple(posts)
        self._values: List[float] = [p.value for p in self.posts]

    @property
    def values(self) -> List[float]:
        """The posting values in list order.  This is the list the window
        queries search, not a copy: callers must not mutate it."""
        return self._values

    def __len__(self) -> int:
        return len(self.posts)

    def __iter__(self):
        return iter(self.posts)

    def __getitem__(self, idx):
        return self.posts[idx]


class Instance:
    """An immutable MQDP instance ``<P, lam>``.

    Parameters
    ----------
    posts:
        The post collection.  They are re-sorted by ``(value, uid)``; uids
        must be unique.  Every post must carry at least one label.
    lam:
        The lambda distance threshold on the diversity dimension.  Must be
        non-negative.
    labels:
        Optional explicit label universe ``L``.  Defaults to the union of the
        posts' labels.  Declaring extra labels is allowed (they simply have
        empty posting lists); declaring fewer than the posts use is an error.
    """

    def __init__(
        self,
        posts: Iterable[Post],
        lam: float,
        labels: Optional[Iterable[str]] = None,
    ):
        post_list = sorted(posts, key=lambda p: (p.value, p.uid))
        seen_uids = set()
        for post in post_list:
            if post.uid in seen_uids:
                raise InvalidInstanceError(f"duplicate post uid {post.uid}")
            seen_uids.add(post.uid)
            if not post.labels:
                raise InvalidInstanceError(
                    f"post {post.uid} has an empty label set"
                )

        used = set()
        for post in post_list:
            used |= post.labels
        if labels is None:
            universe = frozenset(used)
        else:
            universe = frozenset(labels)
            missing = used - universe
            if missing:
                raise InvalidInstanceError(
                    "posts reference labels outside the declared universe: "
                    + ", ".join(sorted(missing))
                )

        self._build(post_list, lam, universe)

    def _build(
        self, posts: Sequence[Post], lam: float, labels: frozenset
    ) -> None:
        """Set every field from sorted, validated posts; rejects a
        negative or NaN ``lam`` (``+inf`` is legal)."""
        if not lam >= 0:
            raise InvalidInstanceError(f"lambda must be >= 0, got {lam}")
        self._posts: Tuple[Post, ...] = tuple(posts)
        self._lam = float(lam)
        self._labels = labels
        self._by_uid: Dict[int, Post] = {p.uid: p for p in self._posts}
        buckets: Dict[str, List[Post]] = {a: [] for a in labels}
        for post in self._posts:
            for label in post.labels:
                buckets[label].append(post)
        self._posting: Dict[str, PostingList] = {
            label: PostingList(label, bucket)
            for label, bucket in buckets.items()
        }

    # -- basic accessors ---------------------------------------------------

    @property
    def posts(self) -> Tuple[Post, ...]:
        """All posts, sorted by diversity value (ties broken by uid)."""
        return self._posts

    @property
    def lam(self) -> float:
        """The lambda distance threshold."""
        return self._lam

    @property
    def labels(self) -> frozenset:
        """The label universe ``L``."""
        return self._labels

    def __len__(self) -> int:
        return len(self._posts)

    def post(self, uid: int) -> Post:
        """Look a post up by uid."""
        return self._by_uid[uid]

    def posting(self, label: str) -> PostingList:
        """The posting list ``LP(label)``."""
        return self._posting[label]

    def posting_lists(self) -> Mapping[str, PostingList]:
        """All posting lists, keyed by label."""
        return dict(self._posting)

    # -- derived statistics --------------------------------------------------

    def overlap_rate(self) -> float:
        """Average number of labels per post (the paper's *overlap rate*)."""
        if not self._posts:
            return 0.0
        return sum(len(p.labels) for p in self._posts) / len(self._posts)

    def max_labels_per_post(self) -> int:
        """``s`` — the largest label-set size over all posts."""
        if not self._posts:
            return 0
        return max(len(p.labels) for p in self._posts)

    def span(self) -> float:
        """Extent of the diversity dimension covered by the posts."""
        if not self._posts:
            return 0.0
        return self._posts[-1].value - self._posts[0].value

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_sorted(
        cls,
        posts: Sequence[Post],
        lam: float,
        labels: Iterable[str],
    ) -> "Instance":
        """Trusted fast constructor for pre-validated, pre-sorted posts.

        Skips the sort and the per-post invariant checks of ``__init__``;
        the caller guarantees ``posts`` is sorted by ``(value, uid)`` with
        unique uids, non-empty label sets, and labels inside ``labels``.
        Used by the incremental view store, whose internal order already
        satisfies all of the above — re-validating on every materialize
        would put an O(n log n) sort on the near-O(1) read path.
        """
        self = cls.__new__(cls)
        self._build(posts, lam, frozenset(labels))
        return self

    @classmethod
    def from_specs(
        cls,
        specs: Iterable[tuple],
        lam: float,
        labels: Optional[Iterable[str]] = None,
    ) -> "Instance":
        """Build an instance from compact ``(value, labels)`` tuples.

        See :func:`repro.core.post.make_posts` for the spec format.
        """
        return cls(make_posts(specs), lam, labels=labels)

    # -- wire format -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe columnar representation.

        ``labels`` is the sorted universe.  Row ``i`` of the ``uids``,
        ``values``, ``masks`` and ``texts`` columns is the ``i``-th post
        in ``(value, uid)`` order, and bit ``j`` of its mask means
        ``labels[j]``.  Posting lists are derived state and are rebuilt
        on :meth:`from_dict` rather than shipped.
        """
        labels = sorted(self._labels)
        bits = {label: 1 << index for index, label in enumerate(labels)}
        mask_of: Dict[frozenset, int] = {}
        masks = []
        for post in self._posts:
            mask = mask_of.get(post.labels)
            if mask is None:
                mask = sum(bits[label] for label in post.labels)
                mask_of[post.labels] = mask
            masks.append(mask)
        return {
            "lam": self._lam,
            "labels": labels,
            "uids": [post.uid for post in self._posts],
            "values": [post.value for post in self._posts],
            "masks": masks,
            "texts": [post.text for post in self._posts],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Instance":
        """Inverse of :meth:`to_dict`.

        Checks the columns in one pass and hands the rows to
        :meth:`from_sorted`, with one label set per distinct mask.
        Raises :class:`InvalidInstanceError` on a missing or mistyped
        column, columns of different lengths, a repeated label name, a
        repeated uid, rows not strictly increasing in ``(value, uid)``
        (NaN values included) and masks outside ``[1, 2**len(labels))``.
        """
        try:
            return cls._from_columns(payload)
        except (KeyError, TypeError, ValueError, OverflowError) as error:
            raise InvalidInstanceError(
                f"malformed instance payload: {error!r}"
            ) from None

    @classmethod
    def _from_columns(cls, payload: Mapping[str, Any]) -> "Instance":
        lam = float(payload["lam"])
        columns = [payload[name] for name in _WIRE_LISTS]
        if not all(isinstance(column, list) for column in columns):
            raise InvalidInstanceError(
                f"instance columns {_WIRE_LISTS} must be lists"
            )
        labels, uids, values, masks, texts = columns
        rows = len(uids)
        if not len(values) == len(masks) == len(texts) == rows:
            raise InvalidInstanceError(
                f"instance columns differ in length: {rows} uids, "
                f"{len(values)} values, {len(masks)} masks, "
                f"{len(texts)} texts"
            )
        if not all(type(label) is str for label in labels):
            raise InvalidInstanceError("instance labels must be strings")
        if len(set(labels)) != len(labels):
            raise InvalidInstanceError(
                f"repeated label name in {sorted(labels)}"
            )
        limit = 1 << len(labels)
        label_sets: Dict[int, frozenset] = {}
        posts: List[Post] = []
        previous = None
        for uid, value, mask, text in zip(uids, values, masks, texts):
            if not isinstance(value, float):
                if not isinstance(value, int) or isinstance(value, bool):
                    raise InvalidInstanceError(
                        f"post {uid!r} has a non-numeric value {value!r}"
                    )
                value = float(value)
            if type(uid) is not int or type(text) is not str:
                raise InvalidInstanceError(
                    f"post {uid!r} needs an int uid and a str text"
                )
            key = (value, uid)
            if previous is None:
                if value != value:
                    raise InvalidInstanceError(f"post {uid} has a NaN value")
            elif not previous < key:
                raise InvalidInstanceError(
                    f"rows are not strictly increasing in (value, uid): "
                    f"{previous!r} then {key!r}"
                )
            previous = key
            label_set = label_sets.get(mask)
            if label_set is None:
                if type(mask) is not int or not 0 < mask < limit:
                    raise InvalidInstanceError(
                        f"post {uid} has mask {mask!r} outside "
                        f"[1, {limit})"
                    )
                label_set = frozenset(
                    label for index, label in enumerate(labels)
                    if mask >> index & 1
                )
                label_sets[mask] = label_set
            posts.append(Post(uid, value, label_set, text))
        instance = cls.from_sorted(posts, lam, labels)
        if len(instance._by_uid) != rows:
            seen = set()
            for uid in uids:
                if uid in seen:
                    raise InvalidInstanceError(f"repeated post uid {uid}")
                seen.add(uid)
        return instance

    def restricted_to(self, lo: float, hi: float) -> "Instance":
        """A sub-instance containing only posts with value in ``[lo, hi]``."""
        subset = [p for p in self._posts if lo <= p.value <= hi]
        return Instance(subset, self._lam)

    def with_lam(self, lam: float) -> "Instance":
        """The same posts under a different lambda threshold."""
        return Instance(self._posts, lam, labels=self._labels)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Instance(|P|={len(self._posts)}, |L|={len(self._labels)}, "
            f"lam={self._lam:g})"
        )
