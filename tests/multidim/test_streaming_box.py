"""Streaming spatiotemporal diversification."""

import random

import pytest

from repro.core.streaming import stream_solve
from repro.core.instance import Instance
from repro.core.post import Post
from repro.errors import InvalidInstanceError
from repro.multidim import (
    InstantBoxCover,
    MultiInstance,
    MultiPost,
    StreamGreedyBox,
)


def _mp(uid, values, labels):
    return MultiPost(uid=uid, values=tuple(values),
                     labels=frozenset(labels))


def _storm(seed=0, n=60):
    rng = random.Random(seed)
    posts = []
    for i in range(n):
        t = i * 30.0 + rng.uniform(0, 10)
        geo = -90.0 + t / 3600.0 + rng.gauss(0, 0.3)
        posts.append(_mp(i, (t, geo), {"storm"}))
    posts.sort(key=lambda p: p.primary())
    return posts


def _run(algorithm, posts):
    """A minimal event loop over primary-dimension order (the generic
    run_stream assumes 1-D posts; multi-posts drive the same protocol)."""
    emissions = []
    last = float("-inf")
    for post in posts:
        assert post.primary() >= last
        last = post.primary()
        while True:
            deadline = algorithm.next_deadline()
            if deadline is None or deadline >= post.primary():
                break
            emissions.extend(algorithm.on_deadline(deadline))
        emissions.extend(algorithm.on_arrival(post))
    emissions.extend(algorithm.flush())
    return emissions


class TestInstantBoxCover:
    def test_emits_first_and_geographic_outliers(self):
        posts = [
            _mp(0, (0.0, -90.0), "a"),
            _mp(1, (10.0, -90.1), "a"),   # near in both dims: covered
            _mp(2, (20.0, -40.0), "a"),   # same time, far away: emitted
        ]
        algorithm = InstantBoxCover({"a"}, radii=(60.0, 1.0))
        emissions = _run(algorithm, posts)
        assert [e.post.uid for e in emissions] == [0, 2]

    def test_output_is_box_cover(self):
        posts = _storm()
        algorithm = InstantBoxCover({"storm"}, radii=(300.0, 0.5))
        emissions = _run(algorithm, posts)
        instance = MultiInstance(posts, radii=(300.0, 0.5))
        assert instance.is_cover([e.post for e in emissions])

    def test_one_dimensional_reduction_matches_instant(self):
        rng = random.Random(1)
        values = sorted(rng.uniform(0, 100) for _ in range(40))
        flat = [_mp(i, (v,), "a") for i, v in enumerate(values)]
        algorithm = InstantBoxCover({"a"}, radii=(5.0,))
        emissions = _run(algorithm, flat)
        core_posts = [Post(uid=i, value=v, labels=frozenset("a"))
                      for i, v in enumerate(values)]
        instance = Instance(core_posts, lam=5.0)
        core = stream_solve("instant", instance, tau=0.0)
        assert [e.post.uid for e in emissions] == [
            p.uid for p in core.posts
        ]


class TestStreamGreedyBox:
    def test_delay_bound(self):
        posts = _storm()
        algorithm = StreamGreedyBox({"storm"}, radii=(300.0, 0.5),
                                    tau=120.0)
        emissions = _run(algorithm, posts)
        for emission in emissions:
            assert emission.emitted_at - emission.post.primary() \
                <= 120.0 + 1e-9

    def test_output_is_box_cover(self):
        posts = _storm(seed=3)
        algorithm = StreamGreedyBox({"storm"}, radii=(300.0, 0.5),
                                    tau=120.0)
        emissions = _run(algorithm, posts)
        instance = MultiInstance(posts, radii=(300.0, 0.5))
        assert instance.is_cover([e.post for e in emissions])

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            StreamGreedyBox({"a"}, radii=(1.0,), tau=-1.0)

    def test_nan_tau_and_radius_rejected(self):
        # construction only: a NaN stream would never drain
        with pytest.raises(ValueError):
            StreamGreedyBox({"a"}, radii=(1.0,), tau=float("nan"))
        with pytest.raises(InvalidInstanceError):
            StreamGreedyBox({"a"}, radii=(float("nan"),), tau=1.0)
        with pytest.raises(InvalidInstanceError):
            InstantBoxCover({"a"}, radii=(float("nan"),))

    def test_multilabel_hub_selected(self):
        posts = [
            _mp(0, (0.0, 0.0), "a"),
            _mp(1, (1.0, 0.1), "b"),
            _mp(2, (2.0, 0.05), "ab"),
        ]
        algorithm = StreamGreedyBox({"a", "b"}, radii=(10.0, 1.0),
                                    tau=5.0)
        emissions = _run(algorithm, posts)
        assert len(emissions) == 1
        assert emissions[0].post.uid == 2

    def test_one_dimensional_reduction_matches_stream_greedy(self):
        rng = random.Random(2)
        values = sorted(rng.uniform(0, 200) for _ in range(50))
        flat = [_mp(i, (v,), "a") for i, v in enumerate(values)]
        algorithm = StreamGreedyBox({"a"}, radii=(8.0,), tau=10.0)
        emissions = _run(algorithm, flat)
        core_posts = [Post(uid=i, value=v, labels=frozenset("a"))
                      for i, v in enumerate(values)]
        instance = Instance(core_posts, lam=8.0)
        core = stream_solve("stream_greedy_sc", instance, tau=10.0)
        assert len(emissions) == core.size
