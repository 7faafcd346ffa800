"""Unit tests for Instance and PostingList."""

import pytest

from repro.core.instance import Instance, window
from repro.core.post import Post, make_posts
from repro.errors import InvalidInstanceError


class TestInstanceConstruction:
    def test_posts_sorted_by_value(self):
        instance = Instance.from_specs(
            [(5.0, "a"), (1.0, "a"), (3.0, "a")], lam=1.0
        )
        assert [p.value for p in instance.posts] == [1.0, 3.0, 5.0]

    def test_ties_broken_by_uid(self):
        posts = [
            Post(uid=2, value=1.0, labels=frozenset("a")),
            Post(uid=1, value=1.0, labels=frozenset("a")),
        ]
        instance = Instance(posts, lam=1.0)
        assert [p.uid for p in instance.posts] == [1, 2]

    def test_negative_lambda_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Instance.from_specs([(1.0, "a")], lam=-0.1)

    def test_zero_lambda_allowed(self):
        instance = Instance.from_specs([(1.0, "a")], lam=0.0)
        assert instance.lam == 0.0

    def test_infinite_lambda_allowed(self):
        instance = Instance.from_specs([(1.0, "a")], lam=float("inf"))
        assert instance.lam == float("inf")
        assert Instance.from_sorted(instance.posts, float("inf"), "a") \
            .lam == float("inf")

    # a NaN lambda fails every `<=` test: the solvers returned every
    # post, and no set of posts passes the verifier
    NAN = float("nan")

    def test_nan_lambda_rejected_by_the_constructor(self):
        posts = [Post(uid=0, value=1.0, labels=frozenset("a"))]
        with pytest.raises(InvalidInstanceError):
            Instance(posts, lam=self.NAN)

    def test_nan_lambda_rejected_by_from_specs(self):
        with pytest.raises(InvalidInstanceError):
            Instance.from_specs(
                [(0.0, "a"), (1.0, "a"), (2.0, "a")], lam=self.NAN
            )

    def test_nan_lambda_rejected_by_from_sorted(self):
        instance = Instance.from_specs([(0.0, "a"), (1.0, "a")], lam=1.0)
        with pytest.raises(InvalidInstanceError):
            Instance.from_sorted(instance.posts, self.NAN, "a")

    def test_nan_lambda_rejected_by_with_lam(self):
        instance = Instance.from_specs([(0.0, "a"), (1.0, "a")], lam=1.0)
        with pytest.raises(InvalidInstanceError):
            instance.with_lam(self.NAN)

    def test_negative_lambda_rejected_by_from_sorted(self):
        instance = Instance.from_specs([(0.0, "a")], lam=1.0)
        with pytest.raises(InvalidInstanceError):
            Instance.from_sorted(instance.posts, -1.0, "a")

    def test_duplicate_uids_rejected(self):
        posts = [
            Post(uid=0, value=1.0, labels=frozenset("a")),
            Post(uid=0, value=2.0, labels=frozenset("a")),
        ]
        with pytest.raises(InvalidInstanceError):
            Instance(posts, lam=1.0)

    def test_empty_label_set_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Instance([Post(uid=0, value=1.0, labels=frozenset())], lam=1.0)

    def test_labels_default_to_union(self):
        instance = Instance.from_specs(
            [(1.0, "a"), (2.0, "bc")], lam=1.0
        )
        assert instance.labels == frozenset("abc")

    def test_explicit_universe_may_be_larger(self):
        instance = Instance.from_specs(
            [(1.0, "a")], lam=1.0, labels="abz"
        )
        assert instance.labels == frozenset("abz")
        assert len(instance.posting("z")) == 0

    def test_universe_smaller_than_used_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Instance.from_specs([(1.0, "ab")], lam=1.0, labels="a")

    def test_empty_instance_allowed(self):
        instance = Instance([], lam=1.0)
        assert len(instance) == 0
        assert instance.span() == 0.0


class TestPostingLists:
    def test_posting_list_contents(self):
        instance = Instance.from_specs(
            [(1.0, "a"), (2.0, "ab"), (3.0, "b")], lam=1.0
        )
        assert [p.value for p in instance.posting("a")] == [1.0, 2.0]
        assert [p.value for p in instance.posting("b")] == [2.0, 3.0]

    def test_window_closed_bounds(self):
        instance = Instance.from_specs(
            [(1.0, "a"), (2.0, "a"), (3.0, "a")], lam=1.0
        )
        plist = instance.posting("a")
        lo, hi = window(plist.values, 1.5, 0.5)
        assert [p.value for p in plist.posts[lo:hi]] == [1.0, 2.0]

    def test_window_empty(self):
        instance = Instance.from_specs([(1.0, "a")], lam=1.0)
        assert window(instance.posting("a").values, 7.0, 2.0) == (1, 1)

    def test_window_count(self):
        instance = Instance.from_specs(
            [(float(v), "a") for v in range(10)], lam=1.0
        )
        lo, hi = window(instance.posting("a").values, 3.5, 1.5)
        assert hi - lo == 4

    def test_window_at_radius_zero_holds_the_equal_values(self):
        instance = Instance.from_specs(
            [(1.0, "a"), (3.0, "a")], lam=1.0
        )
        plist = instance.posting("a")
        lo, hi = window(plist.values, 1.0, 0.0)
        assert (lo, hi) == (0, 1)
        assert plist[hi].value == 3.0
        assert window(plist.values, 3.0, 0.0) == (1, 2)

    def test_posting_lists_mapping(self):
        instance = Instance.from_specs([(1.0, "ab")], lam=1.0)
        mapping = instance.posting_lists()
        assert set(mapping) == {"a", "b"}


class TestDerivedStatistics:
    def test_overlap_rate(self):
        instance = Instance.from_specs(
            [(1.0, "a"), (2.0, "ab"), (3.0, "abc")], lam=1.0
        )
        assert instance.overlap_rate() == pytest.approx(2.0)

    def test_max_labels_per_post(self):
        instance = Instance.from_specs(
            [(1.0, "a"), (2.0, "abc")], lam=1.0
        )
        assert instance.max_labels_per_post() == 3

    def test_span(self):
        instance = Instance.from_specs(
            [(1.0, "a"), (9.0, "a")], lam=1.0
        )
        assert instance.span() == 8.0

    def test_post_lookup_by_uid(self):
        instance = Instance.from_specs([(1.0, "a"), (2.0, "b")], lam=1.0)
        assert instance.post(1).value == 2.0


class TestRestriction:
    def test_restricted_to_window(self):
        instance = Instance.from_specs(
            [(float(v), "a") for v in range(10)], lam=1.0
        )
        window = instance.restricted_to(3.0, 6.0)
        assert [p.value for p in window.posts] == [3.0, 4.0, 5.0, 6.0]

    def test_with_lam_keeps_posts(self):
        instance = Instance.from_specs([(1.0, "a")], lam=1.0)
        wider = instance.with_lam(5.0)
        assert wider.lam == 5.0
        assert wider.posts == instance.posts
