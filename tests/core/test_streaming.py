"""StreamMQDP algorithms (Section 5)."""

import pytest
from hypothesis import given, settings

from repro.core.brute_force import exact_via_setcover
from repro.core.coverage import is_cover
from repro.core.instance import Instance
from repro.core.post import Post
from repro.core.scan import scan
from repro.core.streaming import (
    InstantCover,
    StreamGreedySC,
    StreamGreedySCPlus,
    StreamScan,
    StreamScanPlus,
    stream_solve,
)
from repro.stream.runner import run_stream

from ..conftest import small_instances, streaming_instances

ALL_STREAMING = (
    "stream_scan",
    "stream_scan+",
    "instant",
    "stream_greedy_sc",
    "stream_greedy_sc+",
)


def _instance(specs, lam):
    return Instance.from_specs(specs, lam=lam)


class TestStreamScanBasics:
    def test_single_post_emitted(self):
        instance = _instance([(0.0, "a")], lam=1.0)
        result = stream_solve("stream_scan", instance, tau=5.0)
        assert result.size == 1
        assert result.posts[0].uid == 0

    def test_covered_posts_not_emitted(self):
        instance = _instance([(0.0, "a"), (0.5, "a")], lam=1.0)
        result = stream_solve("stream_scan", instance, tau=0.2)
        assert result.size == 1

    def test_emits_latest_uncovered_at_deadline(self):
        # with tau >= lambda the pick is the furthest post within lambda
        instance = _instance([(0.0, "a"), (0.9, "a"), (3.0, "a")], lam=1.0)
        result = stream_solve("stream_scan", instance, tau=2.0)
        assert {p.value for p in result.posts} == {0.9, 3.0}

    def test_delay_never_exceeds_tau_when_tau_below_lambda(self):
        instance = _instance(
            [(float(i) * 0.3, "a") for i in range(30)], lam=5.0
        )
        result = stream_solve("stream_scan", instance, tau=1.0)
        assert result.max_delay() <= 1.0 + 1e-9

    def test_delay_never_exceeds_lambda_when_tau_above(self):
        instance = _instance(
            [(float(i) * 0.3, "a") for i in range(30)], lam=2.0
        )
        result = stream_solve("stream_scan", instance, tau=100.0)
        assert result.max_delay() <= 2.0 + 1e-9

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            StreamScan(labels={"a"}, lam=-1.0, tau=0.0)
        with pytest.raises(ValueError):
            StreamScan(labels={"a"}, lam=1.0, tau=-0.5)


# Construction only: a stream built on a NaN lambda or tau never drains
# (a NaN deadline never compares >= the next arrival), so no test here
# ever runs one.
NAN = float("nan")
INF = float("inf")


class TestParametersThatAreNotNumbers:
    @pytest.mark.parametrize("cls", [
        StreamScan, StreamScanPlus, StreamGreedySC, StreamGreedySCPlus,
    ])
    @pytest.mark.parametrize("lam, tau", [(NAN, 1.0), (1.0, NAN)],
                             ids=["nan-lam", "nan-tau"])
    def test_nan_lambda_or_tau_refused(self, cls, lam, tau):
        with pytest.raises(ValueError):
            cls(["a"], lam, tau)

    @pytest.mark.parametrize("cls", [
        StreamScan, StreamScanPlus, StreamGreedySC, StreamGreedySCPlus,
    ])
    def test_infinite_lambda_and_tau_stay_legal(self, cls):
        algorithm = cls(["a"], INF, INF)
        assert algorithm.lam == INF and algorithm.tau == INF

    @pytest.mark.parametrize("lam", [NAN, -1.0], ids=["nan", "negative"])
    def test_instant_cover_refuses_a_lambda_below_zero_or_nan(self, lam):
        with pytest.raises(ValueError):
            InstantCover(["a"], lam)

    def test_instant_cover_refuses_a_nan_window(self):
        with pytest.raises(ValueError):
            InstantCover(["a"], 1.0, window=NAN)

    def test_instant_cover_keeps_an_infinite_lambda(self):
        assert InstantCover(["a"], INF, window=INF).lam == INF


class TestStreamScanEquivalence:
    """With tau >= lambda, StreamScan reproduces batch Scan exactly
    (Section 5.1's approximation-bound argument rests on this)."""

    @given(small_instances(max_posts=25))
    @settings(deadline=None)
    def test_matches_batch_scan_when_tau_ge_lambda(self, instance):
        batch = scan(instance)
        result = stream_solve(
            "stream_scan", instance, tau=instance.lam + 1.0
        )
        assert set(result.to_solution().uids) == set(batch.uids)


class TestStreamScanPlus:
    def test_cross_label_propagation_reduces_output(self):
        # (1,'ab') emitted for a at its deadline also serves label b
        specs = [(0.0, "a"), (1.0, "ab"), (1.2, "b")]
        instance = _instance(specs, lam=1.0)
        plain = stream_solve("stream_scan", instance, tau=2.0)
        plus = stream_solve("stream_scan+", instance, tau=2.0)
        assert plus.size <= plain.size

    def test_still_a_cover(self):
        specs = [(0.0, "ab"), (0.7, "a"), (1.4, "b"), (5.0, "ab")]
        instance = _instance(specs, lam=1.0)
        result = stream_solve("stream_scan+", instance, tau=0.5)
        assert is_cover(instance, result.to_solution().posts)


class TestInstantCover:
    def test_first_post_always_emitted(self):
        instance = _instance([(0.0, "a")], lam=1.0)
        result = stream_solve("instant", instance, tau=0.0)
        assert result.size == 1

    def test_zero_delay(self):
        instance = _instance(
            [(float(i), "a") for i in range(10)], lam=2.0
        )
        result = stream_solve("instant", instance, tau=0.0)
        assert result.max_delay() == 0.0

    def test_multilabel_post_needs_all_labels_cached(self):
        specs = [(0.0, "a"), (0.5, "ab")]
        instance = _instance(specs, lam=1.0)
        result = stream_solve("instant", instance, tau=0.0)
        # second post has label b uncovered -> emitted too
        assert result.size == 2

    def test_ratio_approaches_two_on_dense_stream(self):
        """The paper's 2s bound is tight: on a dense single-label stream
        the instant algorithm outputs ~2x the optimum.  Scan is provably
        optimal for a single label, so it serves as the exact reference
        (the branch-and-bound solver chokes on this adversarially uniform
        instance)."""
        specs = [(i * 0.1, "a") for i in range(201)]  # 20 time units
        instance = _instance(specs, lam=1.0)
        result = stream_solve("instant", instance, tau=0.0)
        optimum = scan(instance).size
        assert result.size <= 2 * optimum
        assert result.size >= 1.5 * optimum  # demonstrably worse than opt

    def test_2s_bound_property(self):
        specs = [(0.0, "ab"), (0.5, "a"), (0.9, "b"), (2.0, "ab")]
        instance = _instance(specs, lam=1.0)
        result = stream_solve("instant", instance, tau=0.0)
        s = instance.max_labels_per_post()
        optimum = exact_via_setcover(instance).size
        assert result.size <= 2 * s * optimum


class TestInstantCoverMemoryBound:
    def test_cache_holds_value_uid_pairs_not_posts(self):
        cover = InstantCover(["a"], lam=1.0)
        post = Post(uid=7, value=3.0, labels=frozenset({"a"}),
                    text="x" * 4096)
        cover.on_arrival(post)
        assert cover._cache["a"] == (3.0, 7)

    def test_window_evicts_stale_entries(self):
        cover = InstantCover(["a", "b"], lam=1.0, window=5.0)
        cover.on_arrival(
            Post(uid=1, value=0.0, labels=frozenset({"a"}), text="")
        )
        cover.on_arrival(
            Post(uid=2, value=4.0, labels=frozenset({"b"}), text="")
        )
        assert cover.evicted == 0
        # at t=6 the a-entry (t=0) is older than the window
        cover.on_arrival(
            Post(uid=3, value=6.0, labels=frozenset({"b"}), text="")
        )
        assert cover.evicted == 1
        assert "a" not in cover._cache

    def test_window_below_lambda_rejected(self):
        with pytest.raises(ValueError):
            InstantCover(["a"], lam=2.0, window=1.0)
        InstantCover(["a"], lam=2.0, window=2.0)  # boundary is fine

    @given(streaming_instances())
    @settings(deadline=None, max_examples=60)
    def test_windowed_emissions_identical(self, instance_tau):
        """Any window >= lambda leaves the emission sequence untouched on
        a time-ordered stream: an entry older than the window can never
        cover a future arrival."""
        instance, _ = instance_tau
        plain = InstantCover(instance.labels, instance.lam)
        windowed = InstantCover(
            instance.labels, instance.lam,
            window=instance.lam,
        )
        for post in instance.posts:
            assert [e.post.uid for e in plain.on_arrival(post)] == \
                [e.post.uid for e in windowed.on_arrival(post)]


class TestStreamGreedySC:
    def test_window_respects_tau_delay(self):
        instance = _instance(
            [(float(i) * 0.5, "a") for i in range(40)], lam=3.0
        )
        result = stream_solve("stream_greedy_sc", instance, tau=2.0)
        assert result.max_delay() <= 2.0 + 1e-9

    def test_covers_everything(self):
        specs = [(0.0, "ab"), (1.0, "a"), (2.5, "b"), (4.0, "ab")]
        instance = _instance(specs, lam=1.0)
        result = stream_solve("stream_greedy_sc", instance, tau=1.5)
        assert is_cover(instance, result.to_solution().posts)

    def test_plus_variant_covers_everything(self):
        specs = [(0.0, "ab"), (1.0, "a"), (2.5, "b"), (4.0, "ab")]
        instance = _instance(specs, lam=1.0)
        result = stream_solve("stream_greedy_sc+", instance, tau=1.5)
        assert is_cover(instance, result.to_solution().posts)

    def test_hub_post_selected_within_window(self):
        # three single-label posts + a hub inside one tau window: the
        # greedy should spend one output, not three
        specs = [(0.0, "a"), (0.1, "b"), (0.2, "c"), (0.3, "abc")]
        instance = _instance(specs, lam=1.0)
        result = stream_solve("stream_greedy_sc", instance, tau=1.0)
        assert result.size == 1
        assert result.posts[0].labels == frozenset("abc")

    def test_unknown_algorithm_name(self):
        instance = _instance([(0.0, "a")], lam=1.0)
        with pytest.raises(KeyError):
            stream_solve("nope", instance, tau=1.0)


class TestStreamingProperties:
    @given(streaming_instances())
    @settings(deadline=None, max_examples=60)
    def test_every_algorithm_emits_a_cover(self, instance_tau):
        instance, tau = instance_tau
        for name in ALL_STREAMING:
            result = stream_solve(name, instance, tau=tau)
            assert is_cover(instance, result.to_solution().posts), name

    @given(streaming_instances())
    @settings(deadline=None, max_examples=60)
    def test_delay_bound(self, instance_tau):
        """Every emission happens within max(tau, lambda) of publication —
        tau for the window algorithms, lambda for StreamScan's early
        deadline (min(t_lu + tau, t_ou + lambda))."""
        instance, tau = instance_tau
        bound = max(tau, instance.lam) + 1e-9
        for name in ALL_STREAMING:
            result = stream_solve(name, instance, tau=tau)
            assert result.max_delay() <= bound, name

    @given(small_instances(max_posts=20))
    @settings(deadline=None, max_examples=40)
    def test_stream_scan_2s_bound(self, instance):
        """StreamScan's bound: s when tau >= lambda, 2s when below."""
        s = instance.max_labels_per_post()
        optimum = exact_via_setcover(instance).size
        late = stream_solve("stream_scan", instance,
                            tau=instance.lam + 1.0)
        assert late.size <= s * optimum
        early = stream_solve("stream_scan", instance, tau=0.0)
        assert early.size <= 2 * s * optimum
