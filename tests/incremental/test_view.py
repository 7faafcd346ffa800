"""CoverView delta maintenance: instant-decision inserts, bounded
expiry repair, drift accounting, read memoization."""

import json
import random

import pytest

from repro.core.post import Post
from repro.errors import ReproError
from repro.incremental import REBUILD_RATIO, REBUILD_SLACK, CoverView, \
    PostStore

LABELS = ("golf", "nba")


def make_post(uid, value, labels=("golf",)):
    return Post(uid=uid, value=float(value),
                labels=frozenset(labels), text=f"post {uid}")


def seeded_view(lam=10.0, **kwargs):
    store = PostStore()
    view = CoverView(store, LABELS, lam, **kwargs)
    view.seed([], baseline_size=1, epoch=0)
    return store, view


def feed(store, view, post):
    store.add(post)
    return view.apply_insert(post)


class TestConstruction:
    def test_rejects_bad_parameters(self):
        store = PostStore()
        with pytest.raises(ReproError):
            CoverView(store, LABELS, -1.0)

    def test_rejects_a_nan_lambda(self):
        with pytest.raises(ReproError):
            CoverView(PostStore(), LABELS, float("nan"))

    def test_keeps_an_infinite_lambda(self):
        assert CoverView(PostStore(), LABELS, float("inf")).lam == float("inf")

    def test_starts_stale(self):
        view = CoverView(PostStore(), LABELS, 1.0)
        assert view.stale
        assert not view.fresh(0)
        assert not view.apply_insert(make_post(1, 0.0))


class TestInstantDecisionInsert:
    def test_first_post_per_label_is_selected(self):
        store, view = seeded_view(lam=10.0)
        assert feed(store, view, make_post(1, 0.0, ("golf",)))
        assert feed(store, view, make_post(2, 5.0, ("nba",)))
        assert not feed(store, view, make_post(3, 5.0, ("golf",)))
        assert {p.uid for p in view.cover_posts()} == {1, 2}

    def test_post_outside_lambda_is_selected(self):
        store, view = seeded_view(lam=10.0)
        feed(store, view, make_post(1, 0.0))
        assert feed(store, view, make_post(2, 10.5))
        assert not feed(store, view, make_post(3, 10.0))

    def test_irrelevant_labels_ignored(self):
        store, view = seeded_view(lam=10.0)
        post = make_post(1, 0.0, ("tech",))
        store.add(post)
        assert not view.apply_insert(post)
        assert view.ledger.inserts == 0

    def test_members_relabeled_to_view_universe(self):
        store, view = seeded_view(lam=10.0)
        feed(store, view, make_post(1, 0.0, ("golf", "tech")))
        (member,) = view.cover_posts()
        assert member.labels == frozenset({"golf"})

    def test_cover_valid_under_any_insertion_order(self):
        rng = random.Random(42)
        posts = [
            make_post(uid, rng.uniform(0, 100),
                      rng.sample(LABELS, rng.randint(1, 2)))
            for uid in range(60)
        ]
        for trial in range(5):
            rng.shuffle(posts)
            store, view = seeded_view(lam=7.0)
            for post in posts:
                feed(store, view, post)
            assert view.verify() == []


class TestExpiryRepair:
    def test_expired_member_evicted_and_neighbors_repair(self):
        store, view = seeded_view(lam=10.0)
        feed(store, view, make_post(1, 0.0))   # selected
        feed(store, view, make_post(2, 5.0))   # covered by 1
        feed(store, view, make_post(3, 20.0))  # selected
        removed = store.expire(1.0)
        assert [p.uid for p in removed] == [1]
        assert view.apply_expire(removed) == 1
        # post 2 (value 5.0) lost its only cover; repair re-selects it
        assert {p.uid for p in view.cover_posts()} == {2, 3}
        assert view.verify() == []
        assert view.ledger.repairs == 1
        assert view.ledger.repaired_pairs >= 1

    def test_expiry_of_non_member_is_cheap(self):
        store, view = seeded_view(lam=10.0)
        feed(store, view, make_post(1, 3.0))   # selected
        feed(store, view, make_post(2, 0.0))   # covered, not selected
        removed = store.expire(1.0)
        assert [p.uid for p in removed] == [2]
        assert view.apply_expire(removed) == 0
        assert view.ledger.expired_members == 0
        assert view.verify() == []

    def test_stale_view_ignores_deltas(self):
        store, view = seeded_view(lam=10.0)
        feed(store, view, make_post(1, 0.0))
        view.invalidate()
        assert view.apply_expire(store.expire(1.0)) == 0
        assert view.cover_posts() == ()

    def test_repair_randomized_property(self):
        rng = random.Random(7)
        store, view = seeded_view(lam=5.0)
        uid = 0
        clock = 0.0
        for step in range(200):
            clock += rng.uniform(0.0, 2.0)
            post = make_post(uid, clock,
                             rng.sample(LABELS, rng.randint(1, 2)))
            uid += 1
            feed(store, view, post)
            if step % 17 == 0 and clock > 20.0:
                view.apply_expire(store.expire(clock - 20.0))
            assert view.verify() == []


class TestDrift:
    # baseline 1: the bound is REBUILD_RATIO * 1 + REBUILD_SLACK members
    BOUND = int(REBUILD_RATIO * 1 + REBUILD_SLACK)

    def test_drift_flags_needs_rebuild(self):
        store, view = seeded_view(lam=0.0)
        # lam=0: every distinct value selects
        for uid in range(self.BOUND):
            feed(store, view, make_post(uid, float(uid)))
        assert not view.needs_rebuild  # at the bound, not past it
        assert view.fresh(0)
        feed(store, view, make_post(self.BOUND, float(self.BOUND)))
        assert view.needs_rebuild
        assert view.ledger.rebuild_flags == 1
        assert not view.fresh(0)
        assert view.drift_ratio() == self.BOUND + 1

    def test_reseed_clears_drift(self):
        store, view = seeded_view(lam=0.0)
        for uid in range(self.BOUND + 1):
            feed(store, view, make_post(uid, float(uid)))
        assert view.needs_rebuild
        view.seed(store.materialize(LABELS, 0.0).posts,
                  baseline_size=self.BOUND + 1, epoch=3)
        assert not view.needs_rebuild
        assert view.fresh(3)


class TestSeed:
    """A seed adopts a solve's cover in one pass and leaves the state
    one ``_select`` per post leaves."""

    # every post carries golf or nba; some carry tech too
    LABEL_SETS = (("golf",), ("nba",), ("golf", "nba"), ("golf", "tech"),
                  ("nba", "tech"), ("golf", "nba", "tech"))

    def cover(self, seed):
        rng = random.Random(seed)
        # few distinct values: members share them
        return sorted(
            (make_post(uid, rng.choice([0.0, 5.0, 7.5, 20.0, 31.0]),
                       rng.choice(self.LABEL_SETS))
             for uid in range(40)),
            key=lambda post: (post.value, post.uid),
        )

    @pytest.mark.parametrize("labels", [("golf", "nba", "tech"), LABELS],
                             ids=["full", "subset"])
    @pytest.mark.parametrize("seed", range(5))
    def test_one_pass_equals_a_select_per_post(self, labels, seed):
        posts = self.cover(seed)
        seeded = CoverView(PostStore(), labels, 10.0)
        seeded.seed(posts, baseline_size=len(posts), epoch=0)
        selected = CoverView(PostStore(), labels, 10.0)
        for post in posts:
            selected._select(post)
        assert seeded._members == selected._members
        assert seeded._index == selected._index
        assert all(
            (member is post) == (post.labels <= frozenset(labels))
            for member, post in zip(seeded._members.values(), posts)
        )
        assert all(
            values == sorted(values) for values in seeded._index.values()
        )

    def test_a_read_after_a_seed_serves_its_cover(self):
        store, view = seeded_view(lam=10.0)
        for post in self.cover(0):
            store.add(post)
        feed(store, view, make_post(99, 40.0))
        before = view.materialize()[1]
        mutations = view._mutations
        cover = store.materialize(LABELS, 10.0).posts[::2]
        view.seed(cover, baseline_size=len(cover), epoch=1)
        assert view._mutations > mutations
        _, solution = view.materialize()
        assert solution is not before
        assert solution.uids == tuple(post.uid for post in cover)
        assert view.materialize()[1] is solution


class TestReadPath:
    def test_materialize_memoized_until_mutation(self):
        store, view = seeded_view(lam=10.0)
        feed(store, view, make_post(1, 0.0))
        first = view.materialize()
        second = view.materialize()
        assert first[0] is second[0]
        assert first[1] is second[1]
        feed(store, view, make_post(2, 50.0))
        third = view.materialize()
        assert third[0] is not first[0]
        assert view.ledger.reads == 3

    def test_solution_is_canonical(self):
        store, view = seeded_view(lam=10.0)
        feed(store, view, make_post(2, 50.0))
        feed(store, view, make_post(1, 0.0))
        _, solution = view.materialize()
        assert solution.algorithm == "view:greedy_sc"
        assert [p.uid for p in solution.posts] == [1, 2]

    def test_snapshot_json_safe(self):
        store, view = seeded_view(lam=10.0)
        feed(store, view, make_post(1, 0.0))
        view.apply_expire(store.expire(0.5))
        payload = view.snapshot()
        json.dumps(payload)
        assert payload["size"] == len(view.cover_posts())
        assert payload["ledger"]["inserts"] == 1

    def test_epoch_discipline(self):
        store, view = seeded_view(lam=10.0)
        assert view.fresh(0)
        assert not view.fresh(1)
        view.epoch = 1
        assert view.fresh(1)
