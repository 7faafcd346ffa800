"""Shared fixtures for the cluster tests.

Every cluster test binds ephemeral ports (``port=0``) and reads the
bound address back from the worker — no fixed ports, no collisions
under parallel CI.  There is no pytest-asyncio in this repo: drive
coroutines through :func:`run`.
"""

from __future__ import annotations

import asyncio
from typing import List, Optional, Sequence, Tuple

import pytest

from repro.experiments.common import make_day_instance
from repro.index.inverted_index import Document
from repro.index.query import TopicQuery

TOPIC_TEXTS = ("golf putt", "nba dunk", "cpu kernel")


def make_queries() -> List[TopicQuery]:
    return [
        TopicQuery("golf", ["golf", "putt"]),
        TopicQuery("nba", ["nba", "dunk"]),
        TopicQuery("tech", ["cpu", "kernel"]),
    ]


def make_docs(
    n: int = 24, step: float = 10.0, offset: int = 0
) -> List[Document]:
    """``n`` documents cycling through the three topics, ``step`` apart."""
    docs = []
    for i in range(n):
        uid = offset + i
        text = (
            f"{TOPIC_TEXTS[i % 3]} update number{uid} "
            f"token{uid * 7} extra{uid * 13}"
        )
        docs.append(Document(uid, uid * step, text))
    return docs


def wide_universe() -> Tuple[List[TopicQuery], List[Document]]:
    """8 one-keyword labels over 3 nodes: every node owns a strict
    non-empty subset, so a digest over them genuinely scatters, and a
    single kill leaves dark labels under replication=1.  (The ring puts
    all three :func:`make_queries` labels on one node of three.)"""
    queries = [TopicQuery(f"t{i}", [f"kw{i}"]) for i in range(8)]
    docs = [
        Document(i, i * 10.0, f"kw{i % 8} body{i}") for i in range(32)
    ]
    return queries, docs


# -- the fig13 day workload, rendered into matchable documents -------------

SEED = 20140328
LAM_S = 300.0
NUM_LABELS = 5

_DAY_DOCS: Optional[List[Document]] = None


def day_queries() -> List[TopicQuery]:
    return [TopicQuery(f"q{i}", [f"kwq{i}"]) for i in range(NUM_LABELS)]


def day_documents() -> List[Document]:
    """A small slice of the fig13 day: multi-label posts occur
    naturally, so label partitions genuinely produce seam posts."""
    global _DAY_DOCS
    if _DAY_DOCS is None:
        instance = make_day_instance(
            seed=SEED, num_labels=NUM_LABELS, lam=LAM_S,
            scale=0.002, duration=21_600.0,
        )
        _DAY_DOCS = [
            Document(
                post.uid,
                post.value,
                " ".join(sorted(f"kw{label}" for label in post.labels))
                + f" body{post.uid}",
            )
            for post in instance.posts
        ]
    return _DAY_DOCS


def run(coro):
    """The suite has no pytest-asyncio; drive coroutines explicitly."""
    return asyncio.run(coro)


@pytest.fixture
def queries() -> List[TopicQuery]:
    return make_queries()


@pytest.fixture
def docs() -> List[Document]:
    return make_docs()
