"""Strategies and helpers shared by the engine test suite."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from repro.core.instance import Instance
from repro.core.post import Post

LABELS = "abcdef"


@st.composite
def engine_instances(
    draw,
    max_posts: int = 60,
    max_labels: int = 4,
    force_gaps: bool = False,
):
    """Random instances with more posts than the exact solvers can take,
    steps up to twice lambda apart (so some gaps exceed lambda); with
    ``force_gaps`` every seventh step is a gap wider than lambda."""
    n_labels = draw(st.integers(min_value=1, max_value=max_labels))
    labels = LABELS[:n_labels]
    n_posts = draw(st.integers(min_value=1, max_value=max_posts))
    lam = draw(st.sampled_from([0.5, 1.0, 2.0, 5.0]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))

    values = []
    v = 0.0
    for i in range(n_posts):
        if force_gaps and i and i % 7 == 0:
            step = lam * (1.5 + rng.random())
        else:
            step = rng.uniform(0.0, lam * 2.0)
        v += step
        values.append(v)

    posts = []
    for uid, value in enumerate(values):
        k = rng.randint(1, n_labels)
        chosen = rng.sample(list(labels), k)
        posts.append(Post(uid=uid, value=value, labels=frozenset(chosen)))
    return Instance(posts, lam)


@st.composite
def label_block_instances(draw, max_posts: int = 50):
    """Random instances whose labels split into two blocks, ``abc`` and
    ``def``, with every post's labels inside one block — the shape a
    label-partitioned cluster shard sees when no post spans two shards.
    Steps stay under lambda, so no value gap separates anything."""
    n_posts = draw(st.integers(min_value=2, max_value=max_posts))
    lam = draw(st.sampled_from([0.5, 1.0, 2.0]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    blocks = ("abc", "def")
    posts = []
    v = 0.0
    for uid in range(n_posts):
        v += rng.uniform(0.0, lam * 0.9)
        block = blocks[rng.randrange(2)]
        chosen = rng.sample(block, rng.randint(1, len(block)))
        posts.append(Post(uid=uid, value=v, labels=frozenset(chosen)))
    return Instance(posts, lam)


def exact_lambda_instance(lam: float = 2.0, n: int = 24) -> Instance:
    """Posts spaced *exactly* lambda apart — every window boundary is a
    tie the ``<=`` coverage test must resolve the same way everywhere."""
    specs = [(i * lam, "ab"[i % 2] + ("a" if i % 3 == 0 else ""))
             for i in range(n)]
    return Instance.from_specs(specs, lam)
