"""Algorithm Scan / Scan+ (Section 4.3)."""

import math
from typing import Dict, List

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.brute_force import exact_via_setcover
from repro.core.coverage import is_cover
from repro.core.instance import Instance, InstanceColumns, PostingList
from repro.core.post import Post
from repro.core.scan import order_labels, scan, scan_label, scan_plus

from ..conftest import boundary_instances, small_instances


def scan_plus_full_strike_reference(
    instance: Instance, label_order: List[str]
) -> List[Post]:
    """Scan+ with strikes applied to *every* pick label, processed or
    not — the naive formulation.  Striking already-processed labels is
    dead work (their flags are never read again) and striking the
    current label is a no-op (the value-based advance skips its window
    anyway), so the production code restricts strikes to strictly-later
    labels; this reference is the arbiter that the restriction is
    pick-preserving.
    """
    lam = instance.lam
    covered: Dict[str, List[bool]] = {
        a: [False] * len(instance.posting(a)) for a in instance.labels
    }

    def mark(picked: Post) -> None:
        for other_label in picked.labels:
            flags = covered[other_label]
            for idx, post in enumerate(instance.posting(other_label)):
                if abs(post.value - picked.value) <= lam:
                    flags[idx] = True

    picks: List[Post] = []
    for label in label_order:
        flags = covered[label]
        picks.extend(
            scan_label(
                instance.posting(label),
                lam,
                is_covered=lambda idx, flags=flags: flags[idx],
                on_pick=mark,
            )
        )
    return picks


class TestScanLabel:
    def _plist(self, values, label="a"):
        instance = Instance.from_specs(
            [(v, label) for v in values], lam=1.0
        )
        return instance.posting(label)

    def test_single_post(self):
        picks = scan_label(self._plist([5.0]), lam=1.0)
        assert [p.value for p in picks] == [5.0]

    def test_cluster_covered_by_furthest(self):
        """Posts 0,1,2 with lambda=1: picking the middle one suffices."""
        picks = scan_label(self._plist([0.0, 1.0, 2.0]), lam=1.0)
        assert [p.value for p in picks] == [1.0]

    def test_far_apart_posts_each_picked(self):
        picks = scan_label(self._plist([0.0, 10.0, 20.0]), lam=3.0)
        assert [p.value for p in picks] == [0.0, 10.0, 20.0]

    def test_trailing_post_added_when_uncovered(self):
        # 0,5 with lam 2: pick 0 (covers 0), then 5 must be added
        picks = scan_label(self._plist([0.0, 5.0]), lam=2.0)
        assert [p.value for p in picks] == [0.0, 5.0]

    def test_paper_greedy_shape(self):
        # 0, 5, 6, 12 with lam=2 -> picks 0 (alone), 6 (covers 5,6), 12
        picks = scan_label(self._plist([0.0, 5.0, 6.0, 12.0]), lam=2.0)
        assert [p.value for p in picks] == [0.0, 6.0, 12.0]

    def test_is_covered_skips_targets_but_not_picks(self):
        plist = self._plist([0.0, 1.0, 2.0])
        # mark index 0 covered: scan starts from index 1, picks value 2.0
        picks = scan_label(
            plist, lam=1.0, is_covered=lambda idx: idx == 0
        )
        assert [p.value for p in picks] == [2.0]

    def test_on_pick_callback_sees_every_pick(self):
        seen = []
        scan_label(self._plist([0.0, 10.0]), lam=1.0,
                   on_pick=seen.append)
        assert [p.value for p in seen] == [0.0, 10.0]

    def test_single_label_optimality_against_exact(self):
        """Scan is optimal per label (claimed in the Section 4.3 proof)."""
        values = [0.0, 0.4, 1.1, 2.0, 2.1, 5.0, 5.5, 9.0]
        instance = Instance.from_specs([(v, "a") for v in values], lam=1.0)
        picks = scan_label(instance.posting("a"), lam=1.0)
        optimal = exact_via_setcover(instance)
        assert len(picks) == optimal.size


def scan_index_reference(values: List[float], lam: float) -> List[int]:
    """Index-level transliteration of :func:`scan_label` over a sorted
    value list: the picked positions, with no Post objects involved."""
    picks = []
    n = len(values)
    i = 0
    while i < n:
        left = values[i]
        j = i
        while j + 1 < n and values[j + 1] - left <= lam:
            j += 1
        picks.append(j)
        i = j + 1
        while i < n and values[i] - values[j] <= lam:
            i += 1
    return picks


sorted_value_lists = st.lists(
    st.floats(min_value=0.0, max_value=100.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=80,
).map(sorted)

lambdas = st.sampled_from([0.0, 0.25, 1.0, 3.0, 10.0, 100.0])


def single_label_list(values: List[float], lam: float) -> PostingList:
    return Instance.from_specs([(v, "a") for v in values], lam).posting("a")


def pick_positions(plist: PostingList, picks: List[Post]) -> List[int]:
    position = {p.uid: k for k, p in enumerate(plist)}
    return [position[p.uid] for p in picks]


class TestScanLabelBoundaries:
    """Window-edge behaviour of the single-list greedy: exact-lambda
    ties, duplicate values, one-ulp windows, and the restart property
    the gap-decomposition argument of ``docs/performance.md`` uses
    (``tests/engine/test_block_independence.py`` checks it)."""

    @given(sorted_value_lists, lambdas)
    def test_matches_index_reference(self, values, lam):
        plist = single_label_list(values, lam)
        assert pick_positions(plist, scan_label(plist, lam)) == \
            scan_index_reference([p.value for p in plist], lam)

    def test_exact_lambda_spacing(self):
        # posts exactly lambda apart: the window [v, v + lam] holds two
        # posts and the pick's reach one more, so every third is picked
        plist = single_label_list([i * 2.0 for i in range(24)], 2.0)
        assert pick_positions(plist, scan_label(plist, 2.0)) == \
            [1, 4, 7, 10, 13, 16, 19, 22]

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_all_ties_pick_the_last_tie(self, lam):
        plist = single_label_list([0.0] * 10, lam)
        assert pick_positions(plist, scan_label(plist, lam)) == [9]

    def test_empty_list_picks_nothing(self):
        assert scan_label(PostingList("a", []), 1.0) == []

    def test_one_ulp_windows(self):
        # three posts one ulp apart under a one-ulp lambda: the middle
        # post reaches both neighbours, the ends reach only the middle
        first = 1.0
        second = math.nextafter(first, 2.0)
        third = math.nextafter(second, 2.0)
        lam = second - first
        plist = single_label_list([first, second, third], lam)
        assert pick_positions(plist, scan_label(plist, lam)) == [1]

    @given(sorted_value_lists)
    def test_zero_lambda_picks_each_distinct_value_once(self, values):
        plist = single_label_list(values, 0.0)
        picked = [p.value for p in scan_label(plist, 0.0)]
        assert picked == sorted(set(values))

    @given(sorted_value_lists, lambdas)
    def test_picks_spaced_over_lambda_and_covering(self, values, lam):
        plist = single_label_list(values, lam)
        picks = [p.value for p in scan_label(plist, lam)]
        for left, right in zip(picks, picks[1:]):
            assert right - left > lam
        for value in values:
            assert any(abs(value - pick) <= lam for pick in picks)

    @given(sorted_value_lists, lambdas)
    def test_restart_after_a_pick_reproduces_the_tail(self, values, lam):
        # resuming at the first post a pick leaves uncovered and scanning
        # the rest alone yields exactly the remaining picks
        plist = single_label_list(values, lam)
        picks = scan_label(plist, lam)
        positions = pick_positions(plist, picks)
        for k, j in enumerate(positions):
            resume = j + 1
            while resume < len(plist) and \
                    plist[resume].value - plist[j].value <= lam:
                resume += 1
            tail = PostingList("a", plist.posts[resume:])
            assert scan_label(tail, lam) == picks[k + 1:]

    @given(sorted_value_lists, lambdas)
    def test_gap_wider_than_lambda_splits_the_list(self, values, lam):
        plist = single_label_list(values, lam)
        cuts = [k for k in range(1, len(plist))
                if plist[k].value - plist[k - 1].value > lam]
        whole = scan_label(plist, lam)
        for cut in cuts:
            left = PostingList("a", plist.posts[:cut])
            right = PostingList("a", plist.posts[cut:])
            assert scan_label(left, lam) + scan_label(right, lam) == whole

    def test_everything_covered_picks_nothing(self):
        plist = single_label_list([0.0, 5.0, 10.0], 1.0)
        assert scan_label(plist, 1.0, is_covered=lambda idx: True) == []

    @given(sorted_value_lists, lambdas)
    def test_nothing_covered_is_plain_scan(self, values, lam):
        plist = single_label_list(values, lam)
        assert scan_label(plist, lam, is_covered=lambda idx: False) == \
            scan_label(plist, lam)


class TestScan:
    def test_figure2_scan(self, figure2_instance):
        solution = scan(figure2_instance)
        assert is_cover(figure2_instance, solution.posts)
        # per-label optima: a -> 1 pick (P2), c -> 1 pick; union size 2
        assert solution.size == 2

    def test_scan_processes_labels_independently(self):
        # identical timelines under two labels: scan pays twice
        specs = [(0.0, "a"), (0.0, "b"), (10.0, "a"), (10.0, "b")]
        instance = Instance.from_specs(specs, lam=1.0)
        assert scan(instance).size == 4

    def test_label_order_does_not_change_plain_scan(self):
        instance = Instance.from_specs(
            [(0.0, "ab"), (1.0, "a"), (2.0, "b"), (8.0, "ab")], lam=1.0
        )
        sizes = {
            order: scan(instance, label_order=order).size
            for order in ("sorted", "longest_first", "shortest_first")
        }
        assert len(set(sizes.values())) == 1

    @pytest.mark.parametrize("order, expected", [
        ("sorted", ["a", "b", "c", "z"]),
        ("longest_first", ["b", "c", "a", "z"]),
        ("shortest_first", ["z", "a", "b", "c"]),
    ])
    def test_orders_are_total_with_name_tie_break(self, order, expected):
        # equal posting-list lengths ("b", "c") fall back to the name, and
        # a declared label with no posts still takes its place
        instance = Instance(
            [Post(uid=0, value=0.0, labels=frozenset("abc")),
             Post(uid=1, value=5.0, labels=frozenset("bc"))],
            lam=1.0, labels="abcz",
        )
        assert order_labels(instance, order) == expected

    def test_unknown_order_rejected(self, figure2_instance):
        with pytest.raises(ValueError):
            order_labels(figure2_instance, "random")


class TestScanPlus:
    def test_cross_label_pick_reused(self):
        """A post picked for label a also covers its b pairs, so Scan+
        skips them while plain Scan pays again."""
        specs = [(0.0, "a"), (1.0, "ab"), (2.0, "b")]
        instance = Instance.from_specs(specs, lam=1.0)
        # plain Scan picks (1,'ab') for a, then (2,'b') for b
        assert scan(instance).size == 2
        # Scan+'s pick for a is the multi-label post, which strikes the
        # b pairs, so label b needs no pick at all
        plus = scan_plus(instance)
        assert is_cover(instance, plus.posts)
        assert plus.size == 1

    def test_never_worse_than_scan_on_disjoint_labels(self):
        specs = [(0.0, "a"), (5.0, "b"), (10.0, "a")]
        instance = Instance.from_specs(specs, lam=1.0)
        assert scan_plus(instance).size == scan(instance).size == 3

    def test_smoke_instance(self):
        instance = Instance.from_specs(
            [(0, "a"), (30, "ab"), (65, "b"), (70, "ab"), (120, "a")],
            lam=40,
        )
        solution = scan_plus(instance)
        assert is_cover(instance, solution.posts)
        assert solution.size <= scan(instance).size


class TestScanProperties:
    @given(small_instances())
    def test_scan_produces_valid_cover(self, instance):
        assert is_cover(instance, scan(instance).posts)

    @given(small_instances())
    def test_scan_plus_produces_valid_cover(self, instance):
        assert is_cover(instance, scan_plus(instance).posts)

    @given(small_instances())
    def test_approximation_bound_s(self, instance):
        """|Scan| <= s * |OPT| with s the max labels per post."""
        optimum = exact_via_setcover(instance).size
        s = instance.max_labels_per_post()
        assert scan(instance).size <= s * optimum

    @given(small_instances(max_labels=1))
    def test_single_label_scan_is_optimal(self, instance):
        optimum = exact_via_setcover(instance).size
        assert scan(instance).size == optimum

    @given(small_instances())
    def test_scan_plus_never_over_scan_times_labels(self, instance):
        # Scan+ is also an s-approximation (it never adds picks).
        optimum = exact_via_setcover(instance).size
        s = instance.max_labels_per_post()
        assert scan_plus(instance).size <= s * optimum

    @given(small_instances())
    def test_scan_plus_matches_full_strike_reference(self, instance):
        """Restricting strikes to later labels is pick-preserving."""
        for order in ("sorted", "longest_first", "shortest_first"):
            labels = order_labels(instance, order)
            reference = scan_plus_full_strike_reference(instance, labels)
            deduped = sorted(
                {p.uid: p for p in reference}.values(),
                key=lambda p: (p.value, p.uid),
            )
            assert scan_plus(instance, label_order=order).uids == \
                tuple(p.uid for p in deduped)


class TestOnColumns:
    """Scan and Scan+ on an encoded instance's columns: the picks of the
    instance, in its order, and no instance built — only the picks'
    posts, which the instance built later holds."""

    @pytest.mark.parametrize("order",
                             ["sorted", "longest_first", "shortest_first"])
    @pytest.mark.parametrize("solver", [scan, scan_plus],
                             ids=["scan", "scan+"])
    @given(instance=st.one_of(small_instances(), boundary_instances()))
    def test_same_picks_as_on_the_instance(self, solver, order, instance):
        columns = InstanceColumns.decode(instance.to_dict())
        assert order_labels(columns, order) == \
            order_labels(instance, order)
        on_columns = solver(columns, order)
        assert columns._instance is None
        on_instance = solver(instance, order)
        assert on_columns.posts == on_instance.posts
        assert on_columns.algorithm == on_instance.algorithm
        built = columns.instance
        assert all(
            post is built.post(post.uid) for post in on_columns.posts
        )

    @given(instance=st.one_of(small_instances(), boundary_instances()))
    def test_postings_are_the_posting_lists(self, instance):
        columns = InstanceColumns.decode(instance.to_dict())
        postings = columns.postings
        assert set(postings) == set(instance.labels)
        for label, (values, rows) in postings.items():
            plist = instance.posting(label)
            assert values == plist.values
            assert [columns.uids[row] for row in rows] == \
                [post.uid for post in plist.posts]
        assert columns.postings is postings
        assert columns._instance is None
