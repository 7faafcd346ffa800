"""The one within-lambda lookup, and every site that asks it.

:func:`repro.core.instance.window` is checked against a full scan of its
list, and each of its callers against a brute force written here.  Every
oracle tests every candidate with ``abs(a - b) <= r``; none calls
``window``.  The inputs crowd values onto window edges
(:func:`~tests.conftest.boundary_instances`,
:func:`~tests.conftest.sorted_boundary_lists`), where a bisect on the
rounded ``v +- r`` goes wrong.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.brute_force import exact_via_setcover
from repro.core.coverage import FixedLambda, VariableLambda, \
    covered_pairs_by, is_cover, uncovered_pairs
from repro.core.instance import window
from repro.core.opt import opt
from repro.core.scan import order_labels, scan_plus
from repro.core.streaming import _SelectedIndex
from repro.incremental import CoverView, PostStore
from repro.multidim.model import MultiInstance, MultiPost
from repro.multidim.streaming import _BoxSelectedIndex

from ..conftest import boundary_instances, sorted_boundary_lists
from .test_scan import scan_plus_full_strike_reference


def scanned(values, center, radius):
    """Positions of ``values`` within ``radius`` of ``center``."""
    return [k for k, v in enumerate(values) if abs(v - center) <= radius]


def within(coverer, label, post, radius):
    return label in coverer.labels and label in post.labels \
        and abs(coverer.value - post.value) <= radius


def two_radii(instance):
    """A directional model: lambda or 2 lambda by post and label, so the
    ``x + 2 lam`` edges of :func:`boundary_instances` are live too."""
    lam = instance.lam
    return VariableLambda(
        lambda post, label: lam if (post.uid + ord(label)) % 2 else 2 * lam,
        upper_bound=2 * lam,
    )


def probe_values(instance):
    """Every value in the instance, the probe centers of the sites."""
    return sorted({post.value for post in instance.posts})


def subsets(instance):
    """Any set of the instance's posts."""
    return st.sets(st.sampled_from(instance.posts)) if instance.posts \
        else st.just(set())


class TestWindow:
    @given(sorted_boundary_lists())
    @settings(max_examples=500)
    def test_equals_a_full_scan(self, case):
        values, center, radius = case
        lo, hi = window(values, center, radius)
        assert 0 <= lo <= hi <= len(values)
        assert list(range(lo, hi)) == scanned(values, center, radius)

    @given(sorted_boundary_lists())
    def test_radius_zero_holds_the_equal_values(self, case):
        values, center, _ = case
        lo, hi = window(values, center, 0.0)
        assert values[lo:hi] == [v for v in values if v == center]

    @given(sorted_boundary_lists())
    def test_infinite_radius_holds_every_value(self, case):
        values, center, _ = case
        assert window(values, center, math.inf) == (0, len(values))

    def test_empty_list(self):
        assert window([], 1.0, 5.0) == (0, 0)

    def test_window_beside_the_list_is_empty(self):
        assert window([1.0, 2.0], 10.0, 1.0) == (2, 2)
        assert window([1.0, 2.0], -10.0, 1.0) == (0, 0)

    def test_repeated_edge_values_are_all_inside(self):
        # 376.65160000000003 - 300 rounds above 76.6516, yet
        # 376.65160000000003 - 76.6516 == 300.0
        values = [76.6516, 76.6516, 76.6516, 376.65160000000003]
        assert window(values, 376.65160000000003, 300.0) == (0, 4)


class TestSites:
    @given(boundary_instances(min_posts=4))
    @settings(max_examples=300)
    def test_scan_plus_matches_the_full_strike_reference(self, instance):
        for order in ("sorted", "longest_first", "shortest_first"):
            labels = order_labels(instance, order)
            reference = scan_plus_full_strike_reference(instance, labels)
            expected = sorted({p.uid: p for p in reference}.values(),
                              key=lambda p: (p.value, p.uid))
            assert scan_plus(instance, label_order=order).uids == \
                tuple(p.uid for p in expected)

    @given(boundary_instances(min_posts=8))
    @settings(max_examples=500)
    def test_covered_pairs_by_under_one_lambda(self, instance):
        for model in (None, FixedLambda(instance.lam)):
            for post in instance.posts:
                assert covered_pairs_by(instance, post, model) == {
                    (other.uid, label)
                    for other in instance.posts
                    for label in post.labels
                    if within(post, label, other, instance.lam)
                }

    @given(boundary_instances(min_posts=8))
    @settings(max_examples=500)
    def test_covered_pairs_by_under_variable_radii(self, instance):
        model = two_radii(instance)
        for post in instance.posts:
            assert covered_pairs_by(instance, post, model) == {
                (other.uid, label)
                for other in instance.posts
                for label in post.labels
                if within(post, label, other, model.radius(post, label))
            }

    @given(boundary_instances(min_posts=4), st.data())
    @settings(max_examples=300)
    def test_uncovered_pairs(self, instance, data):
        selected = data.draw(subsets(instance))
        for model in (FixedLambda(instance.lam), two_radii(instance)):
            assert uncovered_pairs(instance, selected, model) == [
                (post.uid, label)
                for label in sorted(instance.labels)
                for post in instance.posting(label)
                if not any(
                    within(coverer, label, post, model.radius(coverer, label))
                    for coverer in selected
                )
            ]

    @given(boundary_instances(max_posts=8, max_labels=2))
    @settings(max_examples=150, deadline=None)
    def test_opt_size_equals_the_exact_set_cover(self, instance):
        solution = opt(instance)
        assert is_cover(instance, solution.posts)
        assert solution.size == exact_via_setcover(instance).size

    @given(boundary_instances(min_posts=8))
    @settings(max_examples=500)
    def test_posts_near(self, instance):
        store = PostStore()
        for post in instance.posts:
            store.add(post)
        lam = instance.lam
        for label in instance.labels:
            for center in probe_values(instance):
                near = store.posts_near(label, center, lam)
                assert [p.uid for p in near] == [
                    p.uid for p in instance.posts
                    if label in p.labels and abs(p.value - center) <= lam
                ]

    @given(boundary_instances(min_posts=8), st.data())
    @settings(max_examples=200)
    def test_cover_view_probe(self, instance, data):
        # seed a view, evict the members below a cutoff (the bounded
        # repair re-selects around them), then probe every value
        store = PostStore()
        for post in instance.posts:
            store.add(post)
        view = CoverView(store, instance.labels, instance.lam)
        view.seed(data.draw(subsets(instance)), baseline_size=1, epoch=0)
        values = probe_values(instance)
        if values:
            view.advance_horizon(data.draw(st.sampled_from(values)))
        members = view.cover_posts()
        for label in instance.labels:
            for value in values:
                assert view._covered(label, value) == any(
                    label in m.labels and abs(m.value - value) <= view.lam
                    for m in members
                )

    @given(boundary_instances(min_posts=8), st.data())
    def test_streaming_selected_index_probe(self, instance, data):
        selected = data.draw(subsets(instance))
        index = _SelectedIndex()
        for post in selected:
            index.add(post)
        lam = instance.lam
        for label in instance.labels:
            for value in probe_values(instance):
                assert index.covers(label, value, lam) == any(
                    label in s.labels and abs(s.value - value) <= lam
                    for s in selected
                )


def as_multi(instance):
    """The instance on a time axis with a second, constant dimension."""
    posts = [MultiPost(p.uid, (p.value, 0.0), p.labels)
             for p in instance.posts]
    return MultiInstance(posts, radii=(instance.lam, 1.0),
                         labels=instance.labels)


class TestMultidimSites:
    @given(boundary_instances(min_posts=8))
    def test_candidates_near(self, instance):
        multi = as_multi(instance)
        radius = instance.lam
        for post in multi.posts:
            for label in post.labels:
                assert [c.uid for c in multi.candidates_near(label, post)] \
                    == [c.uid for c in multi.posting(label)
                        if abs(c.primary() - post.primary()) <= radius]

    @given(boundary_instances(min_posts=8), st.data())
    def test_box_selected_index_probe(self, instance, data):
        multi = as_multi(instance)
        selected = data.draw(subsets(multi))
        index = _BoxSelectedIndex(multi.coverage)
        for post in selected:
            index.add(post)
        for post in multi.posts:
            for label in multi.labels:
                assert index.covers(label, post) == any(
                    label in s.labels and multi.coverage.within(s, post)
                    for s in selected
                )
