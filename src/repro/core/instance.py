"""MQDP problem instances.

An :class:`Instance` bundles everything an algorithm needs: the posts sorted
by diversity value, the distance threshold ``lam`` (the paper's lambda) and,
derived from those, the per-label posting lists ``LP(a)`` of Section 2.

Instances are immutable once built; algorithms never mutate them.  Posting
lists are computed once and shared, which mirrors the inverted-index feeding
described in the paper's system architecture (Figure 1).
"""

from __future__ import annotations

import sys
import threading
from array import array
from base64 import b64decode, b64encode
from bisect import bisect_left, bisect_right
from itertools import chain, compress, filterfalse, islice
from math import isnan
from operator import eq, le, lt
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, \
    Optional, Sequence, Tuple

from ..errors import InvalidInstanceError
from .post import Post, make_posts

__all__ = ["Instance", "InstanceColumns", "PostingList", "window"]

# The JSON-list keys of the wire format; every one but "labels" holds
# one row per post.  "values" travels packed (see pack_values).
_WIRE_LISTS = ("labels", "uids", "masks", "texts")

# the packed values column is little-endian whatever the host's order
_SWAP = sys.byteorder == "big"


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


def pack_values(values: Sequence[float]) -> str:
    """The wire form of a values column: little-endian float64, base64.

    Bit-exact both ways (``-0.0``, infinities and subnormals included).
    For the 1,443 values of the fig13 day slice, packing and dumping
    takes about a tenth of the time ``json.dumps`` spends on the list,
    which formats every float with ``repr``, and loading and unpacking
    about a quarter of ``json.loads`` of the list (2-vCPU host).
    """
    column = array("d", values)
    if _SWAP:
        column.byteswap()
    return b64encode(column.tobytes()).decode("ascii")


def unpack_values(packed: Any) -> List[float]:
    """Inverse of :func:`pack_values`; raises
    :class:`InvalidInstanceError` when ``packed`` is not a string, not
    base64, or not a whole number of float64s."""
    if type(packed) is not str:
        raise InvalidInstanceError(
            f"instance values must be a base64 string, got "
            f"{type(packed).__name__}"
        )
    try:
        raw = b64decode(packed, validate=True)
    except ValueError as error:  # binascii.Error, or a non-ASCII str
        raise InvalidInstanceError(
            f"instance values are not base64: {error}"
        ) from None
    if len(raw) % 8:
        raise InvalidInstanceError(
            f"instance values hold {len(raw)} bytes, not a whole number "
            f"of float64s"
        )
    column = array("d")
    column.frombytes(raw)
    if _SWAP:
        column.byteswap()
    return column.tolist()


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
        # the wire columns, derived on the first to_dict
        self._encoded: Optional[tuple] = None
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
        ``labels[j]``.  ``values`` is packed (:func:`pack_values`); the
        other columns are JSON lists.  Posting lists are derived state
        and are rebuilt on :meth:`from_dict` rather than shipped.

        The columns are derived state too: they are computed on the
        first call and kept, and every call returns a fresh dict of
        fresh lists, which the caller may edit.
        """
        encoded = self._encoded
        if encoded is None:
            encoded = self._encoded = self._encode()
        labels, uids, values, masks, texts = encoded
        return {
            "lam": self._lam,
            "labels": list(labels),
            "uids": list(uids),
            "values": values,
            "masks": list(masks),
            "texts": list(texts),
        }

    def _encode(self) -> tuple:
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
        return (
            tuple(labels),
            tuple(post.uid for post in self._posts),
            pack_values([post.value for post in self._posts]),
            tuple(masks),
            tuple(post.text for post in self._posts),
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Instance":
        """Inverse of :meth:`to_dict`: :meth:`InstanceColumns.decode`
        checks the columns (it lists the errors), then every row becomes
        a post, with one label set per distinct mask."""
        return InstanceColumns.decode(payload).instance

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


_INT = frozenset({int})
_STR = frozenset({str})


def _ties_rise(values: List[float], uids: List[int]) -> bool:
    """Whether rows are strictly increasing in ``(value, uid)`` given
    that their values do not all rise: the values never fall, and the
    uids rise wherever a value repeats."""
    if not all(map(le, values, islice(values, 1, None))):
        return False
    return all(
        uids[row] < uids[row + 1]
        for row in compress(
            range(len(uids)), map(eq, values, islice(values, 1, None))
        )
    )


def _first_repeat(items: Iterable[Any]) -> Any:
    seen = set()
    for item in items:
        if item in seen:
            return item
        seen.add(item)
    return None


class InstanceColumns:
    """An encoded instance's columns (:meth:`Instance.to_dict`), checked,
    before any post exists.

    :meth:`decode` makes every check of the wire format, so the rows can
    go to :meth:`Instance.from_sorted` unchecked.  ``lam`` and
    ``labels`` (the universe, a frozenset) read like an instance's.
    ``uids``, ``values``, ``masks`` and ``texts`` are the rows in
    ``(value, uid)`` order; :attr:`rows` maps a uid to its row and
    ``label_sets`` a mask to its label set, one object per distinct
    mask.

    A digest decoded off the wire keeps its columns as its deferred
    source, and the router merges scatter legs into one set of columns
    (:meth:`from_rows`).  Scan, Scan+ and GreedySC solve on
    :attr:`postings`.
    Only :meth:`posts_at` and :attr:`instance` build posts: the instance
    on its first read, once (two threads reading at once build it once),
    holding every post :meth:`posts_at` returned.  ``repr`` builds
    nothing.
    """

    __slots__ = ("lam", "labels", "uids", "values", "masks", "texts",
                 "label_sets", "_rows", "_postings", "_built", "_instance",
                 "_lock")

    @classmethod
    def decode(cls, payload: Mapping[str, Any]) -> "InstanceColumns":
        """Check an encoded instance.

        Raises :class:`InvalidInstanceError` on a missing or mistyped
        column, a ``lam`` that is not a non-negative ``int`` or
        ``float`` (a ``bool`` is not), ``values`` that are not base64 of
        whole float64s (:func:`unpack_values`), columns of different
        lengths, labels that are not strings or repeat, a uid that is
        not an ``int`` (a ``bool`` is not) or a text that is not a
        ``str``, a NaN value, rows not strictly increasing in
        ``(value, uid)``, a repeated uid, and a mask that is not an
        ``int`` in ``[1, 2**len(labels))``.
        """
        self = cls.__new__(cls)
        try:
            self._decode(payload)
        except (KeyError, TypeError, ValueError, OverflowError) as error:
            raise InvalidInstanceError(
                f"malformed instance payload: {error!r}"
            ) from None
        self._start()
        return self

    @classmethod
    def from_rows(
        cls,
        lam: float,
        labels: FrozenSet[str],
        uids: List[int],
        values: List[float],
        masks: List[int],
        texts: List[str],
        label_sets: Dict[int, FrozenSet[str]],
    ) -> "InstanceColumns":
        """Trusted constructor for rows that meet :meth:`decode`'s
        checks: strictly increasing in ``(value, uid)``, and every mask a
        key of ``label_sets``, whose label sets lie inside ``labels``.
        The router's merge of decoded scatter legs builds its columns
        here."""
        self = cls.__new__(cls)
        self.lam = lam
        self.labels = labels
        self.uids = uids
        self.values = values
        self.masks = masks
        self.texts = texts
        self.label_sets = label_sets
        self._rows = None
        self._start()
        return self

    def _start(self) -> None:
        self._postings: Optional[Dict[str, Tuple[List[float],
                                                 List[int]]]] = None
        self._built: Dict[int, Post] = {}
        self._instance: Optional[Instance] = None
        self._lock = threading.Lock()

    def _decode(self, payload: Mapping[str, Any]) -> None:
        # every check over all rows is one C-level pass (map, set,
        # compress); a failed check then finds its row for the message
        lam = payload["lam"]
        if not isinstance(lam, (int, float)) or isinstance(lam, bool):
            raise InvalidInstanceError(
                f"lambda must be a number, got {lam!r}"
            )
        lam = float(lam)
        if not lam >= 0:
            raise InvalidInstanceError(f"lambda must be >= 0, got {lam}")
        columns = [payload[name] for name in _WIRE_LISTS]
        if not all(isinstance(column, list) for column in columns):
            raise InvalidInstanceError(
                f"instance columns {_WIRE_LISTS} must be lists"
            )
        names, uids, masks, texts = columns
        values = unpack_values(payload["values"])
        size = len(uids)
        if not len(values) == len(masks) == len(texts) == size:
            raise InvalidInstanceError(
                f"instance columns differ in length: {size} uids, "
                f"{len(values)} values, {len(masks)} masks, "
                f"{len(texts)} texts"
            )
        if not set(map(type, names)) <= _STR:
            raise InvalidInstanceError("instance labels must be strings")
        if len(set(names)) != len(names):
            raise InvalidInstanceError(
                f"repeated label name in {sorted(names)}"
            )
        if not (set(map(type, uids)) <= _INT
                and set(map(type, texts)) <= _STR):
            uid = next(
                uid for uid, text in zip(uids, texts)
                if type(uid) is not int or type(text) is not str
            )
            raise InvalidInstanceError(
                f"post {uid!r} needs an int uid and a str text"
            )
        if any(map(isnan, values)):
            uid = next(uid for uid, value in zip(uids, values)
                       if isnan(value))
            raise InvalidInstanceError(f"post {uid} has a NaN value")
        if not all(map(lt, values, islice(values, 1, None))) \
                and not _ties_rise(values, uids):
            keys = list(zip(values, uids))
            previous, key = next(
                (a, b) for a, b in zip(keys, keys[1:]) if not a < b
            )
            raise InvalidInstanceError(
                f"rows are not strictly increasing in (value, uid): "
                f"{previous!r} then {key!r}"
            )
        rows = dict(zip(uids, range(size)))
        if len(rows) != size:
            raise InvalidInstanceError(
                f"repeated post uid {_first_repeat(uids)}"
            )
        limit = 1 << len(names)
        distinct = set(masks) if set(map(type, masks)) <= _INT else None
        if distinct is None or not all(
            0 < mask < limit for mask in distinct
        ):
            uid, mask = next(
                (uid, mask) for uid, mask in zip(uids, masks)
                if type(mask) is not int or not 0 < mask < limit
            )
            raise InvalidInstanceError(
                f"post {uid} has mask {mask!r}, not an int in [1, {limit})"
            )
        self.lam = lam
        self.labels: FrozenSet[str] = frozenset(names)
        self.uids: List[int] = uids
        self.values: List[float] = values
        self.masks: List[int] = masks
        self.texts: List[str] = texts
        self._rows: Optional[Dict[int, int]] = rows
        self.label_sets: Dict[int, FrozenSet[str]] = {
            mask: frozenset(
                label for index, label in enumerate(names)
                if mask >> index & 1
            )
            for mask in distinct
        }

    @property
    def rows(self) -> Dict[int, int]:
        """Maps a uid to its row (derived on first read for
        :meth:`from_rows` columns)."""
        rows = self._rows
        if rows is None:
            rows = self._rows = dict(zip(self.uids, range(len(self.uids))))
        return rows

    @property
    def postings(self) -> Dict[str, Tuple[List[float], List[int]]]:
        """Per label, the values and row numbers of the rows that carry
        it, in row order: the columns' posting lists, derived from the
        masks on first read and kept."""
        with self._lock:
            if self._postings is None:
                rows_of: Dict[int, List[int]] = {
                    mask: [] for mask in self.label_sets
                }
                for row, mask in enumerate(self.masks):
                    rows_of[mask].append(row)
                postings = {}
                values = self.values
                for label in self.labels:
                    rows = sorted(chain.from_iterable(
                        rows_of[mask]
                        for mask, names in self.label_sets.items()
                        if label in names
                    ))
                    postings[label] = (
                        list(map(values.__getitem__, rows)), rows
                    )
                self._postings = postings
            return self._postings

    def posts_at(self, rows: Sequence[int]) -> Tuple[Post, ...]:
        """The posts at ``rows`` (distinct row numbers), each built on
        first request and kept, so the instance built later holds these
        very objects."""
        with self._lock:
            if self._instance is not None:
                return tuple(map(self._instance.posts.__getitem__, rows))
            built = self._built
            fresh = list(filterfalse(built.__contains__, rows)) \
                if built else rows
            posts = tuple(map(
                Post,
                map(self.uids.__getitem__, fresh),
                map(self.values.__getitem__, fresh),
                map(self.label_sets.__getitem__,
                    map(self.masks.__getitem__, fresh)),
                map(self.texts.__getitem__, fresh),
            ))
            built.update(zip(fresh, posts))
            if fresh is rows:  # none was built before: these are all
                return posts
            return tuple(map(built.__getitem__, rows))

    @property
    def instance(self) -> Instance:
        """The instance these columns encode, built on first read."""
        with self._lock:
            if self._instance is None:
                posts = list(map(
                    Post, self.uids, self.values,
                    map(self.label_sets.__getitem__, self.masks),
                    self.texts,
                ))
                for row, post in self._built.items():
                    posts[row] = post
                self._built.clear()
                self._instance = Instance.from_sorted(
                    posts, self.lam, self.labels
                )
            return self._instance

    def __repr__(self) -> str:
        return (
            f"InstanceColumns(rows={len(self.uids)}, "
            f"labels={sorted(self.labels)}, lam={self.lam:g}, "
            f"built={self._instance is not None})"
        )
