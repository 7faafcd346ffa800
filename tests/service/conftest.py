"""Shared fixtures for the serving-layer tests.

Everything here is deterministic: texts carry per-document unique tokens
so SimHash never accidentally merges two fixtures, timestamps are evenly
spaced, and services default to ``dedup_distance=None`` so document
counts stay exact unless a test opts dedup back in.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import List, Optional, Sequence, Tuple

import pytest

from repro.index.inverted_index import Document
from repro.index.query import TopicQuery
from repro.service import DiversificationService, ServiceConfig

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


def make_service(
    queries: Optional[Sequence[TopicQuery]] = None,
    **overrides,
) -> DiversificationService:
    overrides.setdefault("dedup_distance", None)
    return DiversificationService(
        queries if queries is not None else make_queries(),
        ServiceConfig(**overrides),
    )


def run(coro):
    """The suite has no pytest-asyncio; drive coroutines explicitly."""
    return asyncio.run(coro)


def hold_solves(
    service: DiversificationService,
) -> Tuple[threading.Event, threading.Event]:
    """Make each cold solve wait on its executor thread until released.

    Returns ``(entered, release)``: ``entered`` is set once a solve is
    running off the loop, and setting ``release`` lets it finish.  Wait
    for ``entered`` with :func:`solve_entered`, which yields to the loop
    instead of blocking it.
    """
    entered, release = threading.Event(), threading.Event()
    solve_job = service._solve_job

    def held_solve_job(*args):
        entered.set()
        release.wait(5.0)
        return solve_job(*args)

    service._solve_job = held_solve_job
    return entered, release


async def solve_entered(
    entered: threading.Event, timeout: float = 5.0
) -> None:
    deadline = time.monotonic() + timeout
    while not entered.is_set():
        if time.monotonic() > deadline:
            raise AssertionError(f"no solve started within {timeout} s")
        await asyncio.sleep(0.001)


@pytest.fixture
def queries() -> List[TopicQuery]:
    return make_queries()


@pytest.fixture
def docs() -> List[Document]:
    return make_docs()
