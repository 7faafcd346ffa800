"""The post data model.

A *post* is the atomic unit of the Multi-Query Diversification Problem: a
microblogging message projected onto (i) a value on an ordered *diversity
dimension* (publication time, sentiment polarity, distance from a location,
...) and (ii) the set of *labels* (user queries / topics / hashtags) the post
is relevant to.  Following Section 2 of the paper we write a post as
``P_i = (F(P_i), label(P_i))``.

The raw text and any auxiliary metadata are deliberately optional: every
algorithm in :mod:`repro.core` consumes only ``value`` and ``labels``.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import Any, Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

__all__ = ["Post", "make_posts"]


class Post:
    """A single microblogging post.

    Parameters
    ----------
    uid:
        A stable identifier, unique within one instance.  Algorithms use it
        to refer to posts unambiguously (two posts may share ``value`` and
        ``labels`` yet still be distinct messages).
    value:
        The post's coordinate on the diversity dimension ``F``.  For the time
        dimension this is the publication timestamp in seconds; for the
        sentiment dimension a polarity in ``[-1, 1]``.
    labels:
        The set of labels (queries) the post matches.  Must be non-empty for
        posts that take part in an MQDP instance — a post matching no query
        is simply not part of the problem.
    text:
        Optional raw text, kept for display and for the text substrates
        (tokenisation, SimHash, sentiment).

    A post is immutable and behaves as the frozen dataclass it once was:
    assigning or deleting any attribute raises
    :class:`dataclasses.FrozenInstanceError`, equality and the hash read
    ``(uid, value, labels)`` and ignore ``text``, and ``pickle`` and
    :mod:`copy` rebuild it through the constructor.  Its four fields
    live in slots and it has no ``__dict__``: an instance holds one
    post per row, and a slotted post costs about half as much to build.
    """

    __slots__ = ("uid", "value", "labels", "text")

    uid: int
    value: float
    labels: FrozenSet[str]
    text: str

    def __init__(
        self,
        uid: int,
        value: float,
        labels: Iterable[str],
        text: str = "",
    ) -> None:
        # Normalise labels to a frozenset so callers may pass any iterable.
        if not isinstance(labels, frozenset):
            labels = frozenset(labels)
        # the slots' own setters: __setattr__ refuses every assignment
        _SET_UID(self, uid)
        _SET_VALUE(self, value)
        _SET_LABELS(self, labels)
        _SET_TEXT(self, text)

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> Any:
        if other.__class__ is self.__class__:
            return (self.uid, self.value, self.labels) == \
                (other.uid, other.value, other.labels)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.uid, self.value, self.labels))

    def __reduce__(self) -> Tuple[Any, tuple]:
        # the default reduction restores slots through setattr, which a
        # frozen post refuses: rebuild through the constructor instead
        return (self.__class__,
                (self.uid, self.value, self.labels, self.text))

    @property
    def time(self) -> float:
        """Alias of :attr:`value` for the common time-dimension reading."""
        return self.value

    def matches(self, label: str) -> bool:
        """Return True when this post is relevant to ``label``."""
        return label in self.labels

    def distance(self, other: "Post") -> float:
        """Absolute distance to ``other`` on the diversity dimension."""
        return abs(self.value - other.value)

    def covers(self, label: str, other: "Post", lam: float) -> bool:
        """Return True when this post lambda-covers ``label in other``.

        Per Section 2: both posts must be relevant to ``label`` and lie at
        distance at most ``lam`` on the diversity dimension.
        """
        return (
            label in self.labels
            and label in other.labels
            and self.distance(other) <= lam
        )

    # -- wire format -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe representation; labels are sorted for stability."""
        return {
            "uid": self.uid,
            "value": self.value,
            "labels": sorted(self.labels),
            "text": self.text,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Post":
        """Inverse of :meth:`to_dict`; raises ``KeyError``/``TypeError``/
        ``ValueError`` on malformed payloads (callers wrap as needed)."""
        return cls(
            uid=int(payload["uid"]),
            value=float(payload["value"]),
            labels=frozenset(payload["labels"]),
            text=str(payload.get("text", "")),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        labels = ",".join(sorted(self.labels))
        return f"Post(uid={self.uid}, value={self.value:g}, labels={{{labels}}})"


_SET_UID = Post.uid.__set__  # type: ignore[attr-defined]
_SET_VALUE = Post.value.__set__  # type: ignore[attr-defined]
_SET_LABELS = Post.labels.__set__  # type: ignore[attr-defined]
_SET_TEXT = Post.text.__set__  # type: ignore[attr-defined]


def make_posts(specs: Iterable[tuple], start_uid: int = 0) -> list:
    """Build a list of posts from compact ``(value, labels)`` tuples.

    A convenience used pervasively by tests and examples::

        posts = make_posts([(1.0, "ab"), (2.0, ["a"]), (3.0, {"b", "c"})])

    Labels given as a plain string are interpreted character-wise, matching
    the single-letter label names used in the paper's figures.

    Parameters
    ----------
    specs:
        Iterable of ``(value, labels)`` or ``(value, labels, text)`` tuples.
    start_uid:
        The uid assigned to the first post; subsequent posts get consecutive
        uids.
    """
    posts = []
    for offset, spec in enumerate(specs):
        text: Optional[str] = ""
        if len(spec) == 3:
            value, labels, text = spec
        else:
            value, labels = spec
        if isinstance(labels, str):
            labels = frozenset(labels)
        posts.append(
            Post(uid=start_uid + offset, value=float(value),
                 labels=frozenset(labels), text=text or "")
        )
    return posts
