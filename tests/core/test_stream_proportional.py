"""Streaming proportional diversity (the Section 6 extension)."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coverage import is_cover
from repro.core.instance import Instance
from repro.core.post import Post
from repro.core.stream_proportional import (
    OnlineDensityEstimator,
    StreamScanProportional,
)
from repro.core.streaming import StreamScan
from repro.stream.runner import run_stream


def _posts(values, label="a", start_uid=0):
    return [
        Post(uid=start_uid + i, value=float(v), labels=frozenset({label}))
        for i, v in enumerate(values)
    ]


class TestOnlineDensityEstimator:
    def test_rate_rises_with_arrivals(self):
        estimator = OnlineDensityEstimator(decay=10.0)
        assert estimator.rate("a", 0.0) == 0.0
        for value in (0.0, 1.0, 2.0):
            estimator.observe(
                Post(uid=int(value), value=value, labels=frozenset("a"))
            )
        assert estimator.rate("a", 2.0) > 0.2

    def test_rate_decays_over_quiet_periods(self):
        estimator = OnlineDensityEstimator(decay=10.0)
        estimator.observe(Post(uid=0, value=0.0, labels=frozenset("a")))
        fresh = estimator.rate("a", 0.0)
        stale = estimator.rate("a", 50.0)
        assert stale < fresh * 0.05

    def test_exponential_decay_exact(self):
        estimator = OnlineDensityEstimator(decay=5.0)
        estimator.observe(Post(uid=0, value=0.0, labels=frozenset("a")))
        expected = math.exp(-10.0 / 5.0) / 5.0
        assert estimator.rate("a", 10.0) == pytest.approx(expected)

    def test_global_rate_counts_all_labels(self):
        estimator = OnlineDensityEstimator(decay=10.0)
        estimator.observe(Post(uid=0, value=0.0, labels=frozenset("a")))
        estimator.observe(Post(uid=1, value=0.0, labels=frozenset("b")))
        assert estimator.global_rate(0.0) == pytest.approx(0.2)
        assert estimator.rate("a", 0.0) == pytest.approx(0.1)

    def test_invalid_decay(self):
        with pytest.raises(ValueError):
            OnlineDensityEstimator(decay=0.0)


def _run_proportional(posts, lam0, tau, **kwargs):
    labels = set()
    for post in posts:
        labels |= post.labels
    algorithm = StreamScanProportional(labels, lam0=lam0, tau=tau, **kwargs)
    result = run_stream(algorithm, sorted(posts, key=lambda p: p.value))
    return algorithm, result


class TestStreamScanProportional:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            StreamScanProportional({"a"}, lam0=0.0, tau=1.0)
        with pytest.raises(ValueError):
            StreamScanProportional({"a"}, lam0=1.0, tau=-1.0)

    @pytest.mark.parametrize("lam0, tau", [(math.nan, 1.0), (1.0, math.nan)],
                             ids=["nan-lam0", "nan-tau"])
    def test_nan_parameters_refused(self, lam0, tau):
        # construction only: a NaN stream would never drain
        with pytest.raises(ValueError):
            StreamScanProportional({"a"}, lam0=lam0, tau=tau)

    def test_single_post_emitted(self):
        algorithm, result = _run_proportional(
            _posts([5.0]), lam0=1.0, tau=2.0
        )
        assert result.size == 1

    def test_output_is_cover_under_replayed_radii(self):
        rng = random.Random(0)
        posts = _posts(sorted(rng.uniform(0, 100) for _ in range(60)))
        algorithm, result = _run_proportional(posts, lam0=4.0, tau=6.0)
        instance = Instance(posts, lam=4.0)
        model = algorithm.replay_model()
        assert is_cover(instance, result.to_solution().posts, model)

    def test_radii_bounded_by_e_lam0(self):
        rng = random.Random(1)
        posts = _posts(sorted(rng.uniform(0, 50) for _ in range(40)))
        algorithm, _ = _run_proportional(posts, lam0=3.0, tau=5.0)
        for radius in algorithm.assigned_radii.values():
            assert 0.0 < radius <= 3.0 * math.e + 1e-12

    def test_delay_bounded_by_tau_plus_radius(self):
        rng = random.Random(2)
        posts = _posts(sorted(rng.uniform(0, 80) for _ in range(80)))
        lam0, tau = 3.0, 4.0
        _, result = _run_proportional(posts, lam0=lam0, tau=tau)
        assert result.max_delay() <= tau + math.e * lam0 + 1e-9

    def test_dense_regions_get_more_representatives(self):
        """The proportionality claim, live: a burst followed by a sparse
        tail should receive a larger share of the output than fixed-lambda
        StreamScan gives it."""
        rng = random.Random(3)
        burst = sorted(rng.uniform(0.0, 50.0) for _ in range(120))
        tail = sorted(rng.uniform(50.0, 400.0) for _ in range(25))
        posts = _posts(burst + tail)
        lam0, tau = 10.0, 12.0

        algorithm, proportional = _run_proportional(
            posts, lam0=lam0, tau=tau, density0=len(posts) / 400.0
        )
        fixed_algorithm = StreamScan({"a"}, lam=lam0, tau=tau)
        fixed = run_stream(fixed_algorithm, posts)

        def dense_share(result):
            if result.size == 0:
                return 0.0
            dense = sum(1 for e in result.emissions
                        if e.post.value <= 50.0)
            return dense / result.size

        assert dense_share(proportional) > dense_share(fixed)

    def test_multilabel_stream_valid(self):
        rng = random.Random(4)
        posts = [
            Post(
                uid=i,
                value=float(i) * 1.7 + rng.random(),
                labels=frozenset(rng.sample("ab", rng.randint(1, 2))),
            )
            for i in range(50)
        ]
        posts.sort(key=lambda p: p.value)
        algorithm, result = _run_proportional(posts, lam0=3.0, tau=4.0)
        instance = Instance(posts, lam=3.0)
        model = algorithm.replay_model()
        assert is_cover(instance, result.to_solution().posts, model)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(deadline=None, max_examples=40)
    def test_cover_property_random_streams(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 30)
        posts = [
            Post(
                uid=i,
                value=rng.uniform(0, 60),
                labels=frozenset(rng.sample("ab", rng.randint(1, 2))),
            )
            for i in range(n)
        ]
        posts.sort(key=lambda p: (p.value, p.uid))
        lam0 = rng.choice([1.0, 3.0])
        tau = rng.choice([0.5, 2.0, 10.0])
        algorithm, result = _run_proportional(posts, lam0=lam0, tau=tau)
        instance = Instance(posts, lam=lam0)
        model = algorithm.replay_model()
        assert is_cover(instance, result.to_solution().posts, model)
