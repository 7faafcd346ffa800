"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import base64
import math
import random
import struct

import pytest
from hypothesis import strategies as st

from repro.core.instance import Instance
from repro.core.post import Post


# ---------------------------------------------------------------------------
# Plain fixtures
# ---------------------------------------------------------------------------

@pytest.fixture
def figure2_instance() -> Instance:
    """The paper's Figure 2 example: four posts at Delta-t spacing.

    P1{a}, P2{a}, P3{a,c}, P4{c} with lambda = Delta-t = 1.  Example 2
    shows {P2, P4} is a lambda-cover.
    """
    return Instance.from_specs(
        [(0.0, "a"), (1.0, "a"), (2.0, "ac"), (3.0, "c")], lam=1.0
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


# ---------------------------------------------------------------------------
# The packed values column of the wire format
# ---------------------------------------------------------------------------

def unpack(packed: str) -> list:
    """A packed values column as a list: little-endian float64, base64."""
    raw = base64.b64decode(packed)
    return list(struct.unpack(f"<{len(raw) // 8}d", raw))


def pack(values) -> str:
    """Inverse of :func:`unpack`."""
    raw = struct.pack(f"<{len(values)}d", *values)
    return base64.b64encode(raw).decode("ascii")


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

LABELS = "abcd"


@st.composite
def small_instances(
    draw,
    max_posts: int = 12,
    max_labels: int = 3,
    max_value: float = 30.0,
):
    """Random small MQDP instances for property-based tests.

    Sizes are kept small enough that the exact solvers stay fast, while
    values/lambdas vary enough to hit boundary cases (ties, lambda = 0,
    posts beyond every window).
    """
    n_labels = draw(st.integers(min_value=1, max_value=max_labels))
    labels = LABELS[:n_labels]
    n_posts = draw(st.integers(min_value=1, max_value=max_posts))
    posts = []
    for uid in range(n_posts):
        value = draw(
            st.floats(
                min_value=0.0,
                max_value=max_value,
                allow_nan=False,
                allow_infinity=False,
            )
        )
        k = draw(st.integers(min_value=1, max_value=n_labels))
        chosen = draw(
            st.permutations(list(labels)).map(lambda p, k=k: p[:k])
        )
        posts.append(
            Post(uid=uid, value=value, labels=frozenset(chosen))
        )
    lam = draw(
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 5.0, 10.0, max_value])
    )
    return Instance(posts, lam)


@st.composite
def streaming_instances(draw, max_posts: int = 40):
    """Larger single-to-three-label instances for streaming properties."""
    instance = draw(small_instances(max_posts=max_posts, max_labels=3,
                                    max_value=100.0))
    tau = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 5.0, 20.0, 200.0]))
    return instance, tau


# ---------------------------------------------------------------------------
# Window-edge strategies
# ---------------------------------------------------------------------------
#
# The coverage test is ``abs(v - c) <= r``; ``c - r`` and ``c + r`` round,
# so a window computed from them can miss or admit the floats next to the
# true edge.  These strategies crowd values onto such edges.


def adjacent_floats(x: float, spread: int):
    """``x`` and the ``spread`` floats on each side of it."""
    below = above = x
    out = [x]
    for _ in range(spread):
        below = math.nextafter(below, -math.inf)
        above = math.nextafter(above, math.inf)
        out += [below, above]
    return out


@st.composite
def boundary_instances(
    draw, min_posts: int = 0, max_posts: int = 16, max_labels: int = 3
):
    """Instances whose values sit on window edges: anchors ``x``,
    ``x + lam``, ``x - lam`` and ``x + 2 lam``, each with 1 to 6 adjacent
    floats on both sides, with repeats; lambda may be 0, a label may be
    declared that no post carries, and there may be no posts at all.

    A window goes wrong only where several posts of one label crowd an
    edge, so ``min_posts`` raises the odds of drawing such an instance
    (hypothesis keeps lists short otherwise)."""
    lam = draw(st.sampled_from([0.0, 0.3, 0.1 + 0.2, 1.5, 300.0]))
    spread = draw(st.integers(min_value=1, max_value=6))
    anchors = draw(st.lists(
        st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=3,
    ))
    values = []
    for x in anchors:
        for edge in (x, x + lam, x - lam, x + 2 * lam):
            values += adjacent_floats(edge, spread)
    labels = LABELS[:draw(st.integers(min_value=1, max_value=max_labels))]
    # a label set is a nonzero bit mask over ``labels``
    specs = draw(st.lists(st.tuples(
        st.sampled_from(values),
        st.integers(min_value=1, max_value=2 ** len(labels) - 1),
    ), min_size=min_posts, max_size=max_posts))
    posts = [
        Post(uid, value, frozenset(
            label for bit, label in enumerate(labels) if mask >> bit & 1
        ))
        for uid, (value, mask) in enumerate(specs)
    ]
    declared = labels + draw(st.sampled_from(["", LABELS[-1]]))
    return Instance(posts, lam, labels=declared)


@st.composite
def sorted_boundary_lists(draw, max_size: int = 30):
    """``(values, center, radius)``: a sorted float list, with repeats,
    crowded onto ``center``, ``center - radius`` and ``center + radius``
    (1 to 6 adjacent floats each).  Magnitudes run from 1e-3 to 1e9 and
    the radius is 0, finite or infinite."""
    scale = draw(st.sampled_from([1e-3, 0.1, 1.0, 300.0, 1e5, 1e9]))
    center = scale * draw(st.floats(min_value=-10.0, max_value=10.0))
    radius = draw(st.one_of(
        st.just(0.0),
        st.just(math.inf),
        st.sampled_from([0.3, 0.1 + 0.2, 1.5, 300.0]),
        st.floats(min_value=0.0, max_value=10 * scale),
    ))
    spread = draw(st.integers(min_value=1, max_value=6))
    pool = []
    for edge in (center - radius, center, center + radius):
        pool += [v for v in adjacent_floats(edge, spread)
                 if math.isfinite(v)]
    values = draw(st.lists(st.sampled_from(pool), max_size=max_size))
    return sorted(values), center, radius
