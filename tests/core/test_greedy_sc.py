"""Algorithm GreedySC (Section 4.2)."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.brute_force import exact_via_setcover
from repro.core.coverage import is_cover
from repro.core.greedy_sc import _greedy_posts, _runs, _windows, \
    build_setcover_family, greedy_sc
from repro.core.instance import Instance, InstanceColumns
from repro.experiments.common import make_day_instance
from repro.setcover import greedy_set_cover

from ..conftest import boundary_instances, small_instances


class TestSetCoverFamily:
    def test_universe_is_all_pairs(self):
        instance = Instance.from_specs(
            [(0.0, "ab"), (5.0, "a")], lam=1.0
        )
        _, universe = build_setcover_family(instance)
        assert universe == {(0, "a"), (0, "b"), (1, "a")}

    def test_sets_symmetric_within_lambda(self):
        instance = Instance.from_specs(
            [(0.0, "a"), (1.0, "a")], lam=1.0
        )
        family, _ = build_setcover_family(instance)
        assert family[0] == {(0, "a"), (1, "a")}
        assert family[1] == {(0, "a"), (1, "a")}

    def test_no_coverage_across_labels(self):
        instance = Instance.from_specs(
            [(0.0, "a"), (0.0, "b")], lam=1.0
        )
        family, _ = build_setcover_family(instance)
        assert family[0] == {(0, "a")}
        assert family[1] == {(1, "b")}

    def test_window_respects_lambda(self):
        instance = Instance.from_specs(
            [(0.0, "a"), (2.0, "a"), (4.0, "a")], lam=2.0
        )
        family, _ = build_setcover_family(instance)
        # the middle post reaches both neighbours; the ends reach only it
        assert family[1] == {(0, "a"), (1, "a"), (2, "a")}
        assert family[0] == {(0, "a"), (1, "a")}

    @given(st.one_of(small_instances(), boundary_instances()))
    def test_label_windows_are_the_family_sets(self, instance):
        # the lazy heap's window of a post on a label holds exactly the
        # posts of that label in the post's family set; a post's windows
        # come in the order of the runs, here sorted labels
        family, universe = build_setcover_family(instance)
        labels = sorted(instance.labels)
        index_of = {post.uid: k for k, post in enumerate(instance.posts)}
        runs = [
            (plist.values, [index_of[post.uid] for post in plist.posts])
            for plist in map(instance.posting, labels)
        ]
        windows, gains, pairs = _windows(
            instance.lam, len(instance), runs
        )
        assert pairs == len(universe)
        for k, post in enumerate(instance.posts):
            assert len(windows[k]) == len(post.labels) > 0
            for label, (uncovered, lo, hi) in zip(
                sorted(post.labels), windows[k]
            ):
                plist = instance.posting(label)
                assert uncovered == list(range(len(plist)))
                assert {p.uid for p in plist.posts[lo:hi + 1]} == {
                    uid for uid, pair_label in family[k]
                    if pair_label == label
                }
            # a post left out of the queue has gain 0; every other post
            # the size of its family set
            assert gains[k] in (0, len(family[k]))

    def test_multilabel_post_set(self):
        instance = Instance.from_specs(
            [(0.0, "ab"), (0.5, "a"), (0.5, "b")], lam=1.0
        )
        family, _ = build_setcover_family(instance)
        assert family[0] == {
            (0, "a"), (0, "b"), (1, "a"), (2, "b")
        }


class TestGreedySC:
    def test_figure2(self, figure2_instance):
        solution = greedy_sc(figure2_instance)
        assert is_cover(figure2_instance, solution.posts)
        assert solution.size == 2

    def test_prefers_multilabel_hub(self):
        """GreedySC's whole advantage: one hub post covers pairs of many
        labels at once."""
        specs = [(0.0, "a"), (0.1, "b"), (0.2, "c"), (0.3, "abc")]
        instance = Instance.from_specs(specs, lam=1.0)
        solution = greedy_sc(instance)
        assert solution.size == 1
        assert solution.posts[0].labels == frozenset("abc")

    def test_strategies_agree_on_result(self):
        instance = Instance.from_specs(
            [(0, "a"), (30, "ab"), (65, "b"), (70, "ab"), (120, "a")],
            lam=40,
        )
        rescan = greedy_sc(instance, strategy="rescan")
        heap = greedy_sc(instance, strategy="lazy_heap")
        assert rescan.uids == heap.uids

    def test_unknown_strategy_rejected(self, figure2_instance):
        with pytest.raises(ValueError):
            greedy_sc(figure2_instance, strategy="magic")


class TestGreedySCProperties:
    @given(small_instances())
    def test_valid_cover(self, instance):
        assert is_cover(instance, greedy_sc(instance).posts)

    @given(small_instances())
    def test_logarithmic_bound(self, instance):
        """|GreedySC| <= H(k) * |OPT| with k the largest set size
        (Feige's bound for greedy set cover)."""
        family, _ = build_setcover_family(instance)
        k = max((len(s) for s in family), default=1)
        harmonic = sum(1.0 / i for i in range(1, k + 1))
        optimum = exact_via_setcover(instance).size
        assert greedy_sc(instance).size <= math.ceil(harmonic * optimum)

    @given(st.one_of(small_instances(), boundary_instances()))
    @example(Instance([], lam=1.0))
    @settings(max_examples=300)
    def test_strategies_agree(self, instance):
        # pick order, not just the cover: the windowed heap picks what the
        # heap over the materialised family picks, and so does the rescan
        family, universe = build_setcover_family(instance)
        expected = [
            instance.posts[k] for k in greedy_set_cover(
                family, universe=universe, strategy="lazy_heap")
        ]
        assert _greedy_posts(instance, "lazy_heap", "auto") == expected
        assert _greedy_posts(instance, "rescan", "auto") == expected
        rescan = greedy_sc(instance, strategy="rescan")
        heap = greedy_sc(instance, strategy="lazy_heap")
        assert rescan.uids == heap.uids

    @given(st.one_of(small_instances(), boundary_instances()))
    @settings(max_examples=300)
    def test_the_heap_leaves_out_only_posts_the_rescan_never_picks(
        self, instance
    ):
        size, runs = _runs(instance)
        _, gains, _ = _windows(instance.lam, size, runs)
        left_out = {
            post.uid for post, gain in zip(instance.posts, gains)
            if not gain
        }
        rescan = _greedy_posts(instance, "rescan", "python")
        assert not left_out & {post.uid for post in rescan}
        # only single-label posts are left out
        assert all(
            len(post.labels) == 1 for post in instance.posts
            if post.uid in left_out
        )
        assert _greedy_posts(instance, "lazy_heap", "auto") == rescan


class TestOnColumns:
    """GreedySC on an encoded instance's columns: the picks of the
    instance, in its order, and no instance built — only the picks'
    posts, which the instance built later holds."""

    @given(instance=st.one_of(small_instances(), boundary_instances()))
    @example(instance=Instance([], lam=1.0))
    def test_same_picks_as_on_the_instance(self, instance):
        columns = InstanceColumns.decode(instance.to_dict())
        picks = _greedy_posts(columns, "lazy_heap", "auto")
        assert columns._instance is None
        assert [post.uid for post in picks] == [
            post.uid
            for post in _greedy_posts(instance, "lazy_heap", "auto")
        ]
        on_columns = greedy_sc(columns)
        assert columns._instance is None
        on_instance = greedy_sc(instance)
        assert on_columns.posts == on_instance.posts
        assert on_columns.algorithm == on_instance.algorithm
        built = columns.instance
        assert all(
            post is built.post(post.uid) for post in on_columns.posts
        )

    def test_the_day_slice_builds_only_the_picks(self):
        instance = make_day_instance(
            seed=20140328, num_labels=5, lam=300.0, scale=0.002,
        )
        columns = InstanceColumns.decode(instance.to_dict())
        solution = greedy_sc(columns)
        assert columns._instance is None
        assert solution.uids == greedy_sc(instance).uids
        assert solution.size == 453
        assert sorted(columns._built) == sorted(
            columns.rows[uid] for uid in solution.uids
        )

    def test_the_rescan_solves_the_encoded_instance(self, figure2_instance):
        columns = InstanceColumns.decode(figure2_instance.to_dict())
        rescan = greedy_sc(columns, strategy="rescan")
        assert columns._instance is not None
        assert rescan.uids == greedy_sc(figure2_instance).uids
