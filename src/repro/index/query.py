"""Topic queries and the post/label matching module.

In the paper, a user's information need is a set of labels (queries); each
label is a news topic represented by its top-40 LDA keywords, and a post
matches a topic when it "contains at least one keyword of the topic"
(Section 7.1).  :class:`TopicQuery` carries one label;
:class:`LabelMatcher` resolves a post's label set in one tokenizer pass via
a keyword -> labels dictionary, which is what makes stream-rate matching
feasible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..core.post import Post
from .inverted_index import Document, InvertedIndex
from .tokenizer import tokenize

__all__ = ["TopicQuery", "LabelMatcher"]


@dataclass(frozen=True)
class TopicQuery:
    """One label: a named topic backed by a keyword set.

    ``weights`` (keyword -> LDA weight) are optional and only used for
    display / topic inspection; matching is binary on keyword containment,
    as in the paper.
    """

    label: str
    keywords: FrozenSet[str]
    weights: Optional[Tuple[Tuple[str, float], ...]] = field(
        default=None, compare=False
    )

    def __post_init__(self) -> None:
        if not self.keywords:
            raise ValueError(f"topic {self.label!r} has no keywords")
        lowered = frozenset(k.lower() for k in self.keywords)
        object.__setattr__(self, "keywords", lowered)

    def matches(self, text: str) -> bool:
        """True when the text contains at least one topic keyword."""
        return any(token in self.keywords for token in tokenize(text))

    def top_keywords(self, count: int = 10) -> List[str]:
        """Highest-weight keywords (falls back to sorted order)."""
        if self.weights is None:
            return sorted(self.keywords)[:count]
        ranked = sorted(self.weights, key=lambda kw: -kw[1])
        return [keyword for keyword, _ in ranked[:count]]


class LabelMatcher:
    """Resolve the label set of each post in a single tokenisation pass."""

    def __init__(self, queries: Iterable[TopicQuery]):
        self.queries: Tuple[TopicQuery, ...] = tuple(queries)
        labels = [q.label for q in self.queries]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels in query set")
        self._keyword_to_labels: Dict[str, Set[str]] = {}
        for query in self.queries:
            for keyword in query.keywords:
                self._keyword_to_labels.setdefault(keyword, set()).add(
                    query.label
                )

    @property
    def labels(self) -> FrozenSet[str]:
        """The label universe this matcher resolves against."""
        return frozenset(q.label for q in self.queries)

    def match(self, text: str) -> FrozenSet[str]:
        """Labels whose topics the text matches (possibly empty)."""
        matched: Set[str] = set()
        for token in tokenize(text):
            hits = self._keyword_to_labels.get(token)
            if hits:
                matched |= hits
        return frozenset(matched)

    def to_posts(
        self, documents: Iterable[Document]
    ) -> List[Post]:
        """Convert matching documents into MQDP posts.

        Documents matching no label are filtered out — they are simply not
        part of the problem.  The post's diversity value is the document
        timestamp (the time dimension); swap in another extractor for other
        dimensions via :meth:`to_posts_with_value`.
        """
        return self.to_posts_with_value(
            documents, value_of=lambda document: document.timestamp
        )

    def to_posts_with_value(
        self, documents: Iterable[Document], value_of
    ) -> List[Post]:
        """Like :meth:`to_posts` with a custom diversity-value extractor
        (e.g. a sentiment scorer for the sentiment dimension).

        Posts with equal label sets share one frozenset, so a result that
        keeps its posts holds one label set per distinct combination, not
        one per post."""
        posts: List[Post] = []
        interned: Dict[FrozenSet[str], FrozenSet[str]] = {}
        for document in documents:
            labels = self.match(document.text)
            if not labels:
                continue
            labels = interned.setdefault(labels, labels)
            posts.append(
                Post(
                    uid=document.doc_id,
                    value=float(value_of(document)),
                    labels=labels,
                    text=document.text,
                )
            )
        return posts

    def search_posts(
        self,
        index: InvertedIndex,
        start: float = float("-inf"),
        end: float = float("inf"),
    ) -> List[Post]:
        """The Figure 1 index path: search every topic's keywords over the
        index, merge, and label the hits."""
        keywords: Set[str] = set()
        for query in self.queries:
            keywords |= query.keywords
        documents = index.search(keywords, start=start, end=end, mode="or")
        return self.to_posts(documents)
