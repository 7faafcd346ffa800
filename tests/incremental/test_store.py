"""PostStore / DocumentProjector: projection equivalence with the batch
pipeline's preprocessing, ordering invariants, window expiry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instance import Instance
from repro.core.post import Post
from repro.errors import ReproError
from repro.incremental import DocumentProjector, PostStore
from repro.index.inverted_index import Document
from repro.index.query import LabelMatcher, TopicQuery
from repro.pipeline import DiversificationPipeline

QUERIES = [
    TopicQuery("golf", ["golf", "pga"]),
    TopicQuery("nba", ["nba", "dunk"]),
    TopicQuery("tech", ["tech", "gadget"]),
]

TEXTS = [
    "golf pga birdie",
    "nba dunk highlight",
    "tech gadget launch",
    "golf nba crossover dunk pga",
    "nothing relevant here",
]


def make_docs(n, step=10.0):
    return [
        Document(i, i * step, f"{TEXTS[i % len(TEXTS)]} filler{i * 7}")
        for i in range(n)
    ]


def build_store(docs, dedup_distance=None):
    store = PostStore(DocumentProjector(
        QUERIES, dedup_distance=dedup_distance
    ))
    for doc in docs:
        store.ingest_document(doc)
    return store


class TestProjectionEquivalence:
    @pytest.mark.parametrize("dedup", [None, 3])
    def test_matches_batch_pipeline_preprocessing(self, dedup):
        docs = make_docs(30)
        # near-duplicates: same text as an earlier doc, later value
        docs += [
            Document(100 + i, 1000.0 + i, docs[i].text) for i in range(4)
        ]
        pipeline = DiversificationPipeline(
            QUERIES, lam=30.0, dedup_distance=dedup
        )
        batch = pipeline.digest(docs)
        store = build_store(docs, dedup_distance=dedup)
        instance = store.materialize([q.label for q in QUERIES], 30.0)
        assert instance.posts == batch.instance.posts
        assert instance.labels == batch.instance.labels
        assert store.projector.duplicates_dropped == \
            batch.duplicates_dropped
        assert store.live_documents - len(instance.posts) == \
            batch.unmatched_dropped

    def test_subset_materialization_equals_subset_batch(self):
        docs = make_docs(25)
        store = build_store(docs)
        subset = ["golf", "nba"]
        pipeline = DiversificationPipeline(
            [q for q in QUERIES if q.label in subset],
            lam=20.0, dedup_distance=None,
        )
        batch = pipeline.digest(docs)
        instance = store.materialize(subset, 20.0)
        assert instance.posts == batch.instance.posts
        assert instance.labels == frozenset(subset)

    def test_unmatched_documents_are_counted_not_stored(self):
        docs = [Document(1, 1.0, "nothing"), Document(2, 2.0, "golf")]
        store = build_store(docs)
        assert len(store) == 1
        assert store.live_documents == 2


def relabeled_per_post(posts, labels):
    """What ``materialize`` computed before it memoized relabels: each
    post intersected with the subset on its own, kept when unchanged."""
    universe = frozenset(labels)
    out = []
    for post in posts:
        inter = post.labels & universe
        if inter == post.labels:
            out.append(post)
        elif inter:
            out.append(Post(uid=post.uid, value=post.value, labels=inter,
                            text=post.text))
    return out


ALL_LABELS = [q.label for q in QUERIES]
SUBSETS = [["golf"], ["golf", "nba"], ["nba", "tech"], ["golf", "tech"]]


class TestLabelSetInterning:
    @pytest.mark.parametrize("dedup", [None, 3])
    def test_equal_label_sets_share_one_frozenset(self, dedup):
        store = build_store(make_docs(60), dedup_distance=dedup)
        posts = store.materialize(ALL_LABELS, 10.0).posts
        shared = {}
        for post in posts:
            assert shared.setdefault(post.labels, post.labels) \
                is post.labels
        assert len(shared) < len(posts)

    def test_full_label_set_hands_out_the_stored_posts(self):
        store = build_store(make_docs(30))
        first = store.materialize(ALL_LABELS, 10.0).posts
        again = store.materialize(ALL_LABELS + ["absent"], 5.0).posts
        assert all(a is b for a, b in zip(first, again))
        assert [p.uid for p in first] == [p.uid for p in again]

    @pytest.mark.parametrize("labels", SUBSETS)
    def test_subset_holds_one_label_set_per_combination(self, labels):
        store = build_store(make_docs(60))
        for _ in range(2):
            posts = store.materialize(labels, 10.0).posts
            assert len({id(p.labels) for p in posts}) == \
                len({p.labels for p in posts})

    @pytest.mark.parametrize("min_value", [None, 95.0])
    @pytest.mark.parametrize("labels", SUBSETS + [ALL_LABELS])
    def test_materialize_equals_per_post_relabel(self, labels, min_value):
        docs = make_docs(50)
        store = build_store(docs)
        stored = [p for p in store.materialize(ALL_LABELS, 1.0).posts
                  if min_value is None or p.value >= min_value]
        instance = store.materialize(labels, 10.0, min_value=min_value)
        expected = relabeled_per_post(stored, labels)
        assert instance.posts == tuple(expected)
        assert [p.text for p in instance.posts] == \
            [p.text for p in expected]
        assert instance.labels == frozenset(labels)

    def test_store_without_projector_relabels_too(self):
        store = PostStore()
        for uid, labels in enumerate(["ab", "ab", "a", "bc", "c"]):
            store.add(Post(uid=uid, value=float(uid),
                           labels=frozenset(labels), text=""))
        instance = store.materialize(["a", "b"], 1.0)
        assert [(p.uid, "".join(sorted(p.labels)))
                for p in instance.posts] == \
            [(0, "ab"), (1, "ab"), (2, "a"), (3, "b")]


class TestStoreInvariants:
    def test_posts_stay_sorted_under_shuffled_insert(self):
        store = PostStore()
        values = [5.0, 1.0, 9.0, 3.0, 3.0, 7.0]
        for uid, value in enumerate(values):
            store.add(Post(uid=uid, value=value,
                           labels=frozenset({"golf"}), text=""))
        instance = store.materialize(["golf"], 2.0)
        keys = [(p.value, p.uid) for p in instance.posts]
        assert keys == sorted(keys)
        # from_sorted must agree with the validating constructor
        strict = Instance(instance.posts, 2.0, labels=["golf"])
        assert strict.posts == instance.posts

    def test_duplicate_uid_rejected(self):
        store = PostStore()
        post = Post(uid=7, value=1.0, labels=frozenset({"golf"}), text="")
        store.add(post)
        with pytest.raises(ReproError):
            store.add(post)

    def test_posts_near_is_exact(self):
        store = PostStore()
        for uid, value in enumerate([0.0, 9.9, 10.0, 20.0, 30.0, 30.1]):
            store.add(Post(uid=uid, value=value,
                           labels=frozenset({"golf"}), text=""))
        near = store.posts_near("golf", 20.0, 10.0)
        assert [p.uid for p in near] == [2, 3, 4]
        assert store.posts_near("nba", 20.0, 10.0) == []

    @staticmethod
    def _near(values, center, lam=300.0):
        store = PostStore()
        for uid, value in enumerate(values):
            store.add(Post(uid=uid, value=value,
                           labels=frozenset({"golf"}), text=""))
        return [p.uid for p in store.posts_near("golf", center, lam)]

    def test_posts_near_keeps_two_floats_below_the_rounded_edge(self):
        # both lie exactly 300 from the center, below the rounded
        # 184.6603 - 300 == -115.3397; a bisect widened by one slot
        # kept only the second
        assert self._near(
            [-115.33970000000002, -115.33970000000001], 184.6603
        ) == [0, 1]

    def test_posts_near_keeps_three_floats_below_the_rounded_edge(self):
        # all three lie within 300 of the center, below the rounded
        # 304.1451 - 300 == 4.1451000000000136; a bisect widened by one
        # slot kept only the last
        assert self._near(
            [4.145100000000011, 4.145100000000012, 4.145100000000013],
            304.1451,
        ) == [0, 1, 2]


class TestExpiry:
    def test_expire_drops_old_posts_and_unmatched(self):
        docs = [
            Document(1, 1.0, "golf"),
            Document(2, 2.0, "nothing"),
            Document(3, 3.0, "nba dunk"),
            Document(4, 4.0, "golf pga"),
        ]
        store = build_store(docs)
        removed = store.expire(2.5)
        assert [p.uid for p in removed] == [1]
        assert store.horizon == 2.5
        assert len(store) == 2
        assert store.live_documents == 2  # unmatched value 2.0 expired too
        assert store.expired == 1
        instance = store.materialize(["golf", "nba", "tech"], 1.0)
        assert [p.uid for p in instance.posts] == [3, 4]

    def test_expire_trims_label_indexes(self):
        store = build_store(make_docs(12))
        store.expire(60.0)
        # posts_near must not resurrect expired posts
        for label in ("golf", "nba", "tech"):
            for post in store.posts_near(label, 0.0, 1000.0):
                assert post.value >= 60.0

    def test_horizon_never_regresses(self):
        store = build_store(make_docs(6))
        store.expire(30.0)
        store.expire(10.0)
        assert store.horizon == 30.0

    def test_stats_json_safe(self):
        import json

        store = build_store(make_docs(6), dedup_distance=3)
        store.expire(20.0)
        json.dumps(store.stats())


class TestMatcherSubsetLemma:
    def test_subset_matching_equals_full_match_intersection(self):
        # the relabeling in materialize() is sound because per-query
        # matching is independent: match over a subset of queries equals
        # the full match intersected with the subset's labels
        full = LabelMatcher(QUERIES)
        subset_queries = [q for q in QUERIES if q.label != "tech"]
        subset = LabelMatcher(subset_queries)
        universe = frozenset(q.label for q in subset_queries)
        for doc in make_docs(40):
            assert subset.match(doc.text) == \
                full.match(doc.text) & universe


# -- counting a read without building it -----------------------------------

COUNT_LABELS = ("a", "b", "c", "d")
COUNT_QUERIES = [TopicQuery(label, [f"kw{label}"]) for label in COUNT_LABELS]
COUNT_SUBSETS = [
    tuple(label for bit, label in enumerate(COUNT_LABELS) if mask >> bit & 1)
    for mask in range(16)
]
label_sets = st.frozensets(st.sampled_from(COUNT_LABELS))
# few distinct values, so values repeat within and across label sets
count_values = st.integers(0, 8).map(float)
history_ops = st.one_of(
    st.tuples(st.just("add"), count_values,
              label_sets.filter(bool)),
    st.tuples(st.just("document"), count_values, label_sets),
    st.tuples(st.just("expire"), count_values, st.just(frozenset())),
)


def replay(history):
    store = PostStore(DocumentProjector(COUNT_QUERIES, dedup_distance=None))
    for uid, (op, value, labels) in enumerate(history):
        if op == "add":
            store.add(Post(uid=uid, value=value, labels=labels))
        elif op == "document":
            text = " ".join(f"kw{label}" for label in sorted(labels))
            store.ingest_document(Document(uid, value, text or "chatter"))
        else:
            store.expire(value)
    return store


class TestCount:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(history_ops, max_size=30))
    def test_count_equals_materialized_size(self, history):
        store = replay(history)
        values = sorted({post.value for post in store.materialize(
            COUNT_LABELS, 1.0).posts})
        horizons = [None] + values + [v + 0.5 for v in values] + [-1.0]
        for labels in COUNT_SUBSETS:
            for horizon in horizons:
                posts = store.materialize(labels, 1.0, horizon).posts
                assert store.count(labels, horizon) == len(posts)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(history_ops, max_size=30), st.sampled_from(
        [None, 0.0, 2.5, 4.0]))
    def test_snapshot_is_the_materialized_read(self, history, horizon):
        store = replay(history)
        for labels in COUNT_SUBSETS[1:]:
            snapshot = store.snapshot(labels, 1.0, min_value=horizon)
            want = store.materialize(labels, 1.0, horizon)
            matched = len(want.posts)
            assert snapshot.counters == {
                "matched": matched,
                "unmatched_dropped":
                    store.live_documents_since(horizon) - matched,
                "duplicates_dropped": 0,
            }
            assert snapshot.instance.posts == want.posts
            assert snapshot.instance.labels == want.labels

    def test_snapshot_survives_later_writes(self):
        store = replay([("add", 1.0, frozenset("ab")),
                        ("add", 2.0, frozenset("c")),
                        ("document", 3.0, frozenset())])
        snapshot = store.snapshot(("a", "c"), 1.0, min_value=1.5)
        want = store.materialize(("a", "c"), 1.0, 1.5).posts
        store.add(Post(uid=9, value=5.0, labels=frozenset("a")))
        store.expire(4.0)
        assert snapshot.counters["matched"] == 1
        assert snapshot.counters["unmatched_dropped"] == 1
        assert snapshot.instance.posts == want
        assert "built=True" in repr(snapshot)

    def test_version_moves_with_every_counter(self):
        store = replay([("add", 1.0, frozenset("a"))])
        version = store.version
        store.ingest_document(Document(5, 2.0, "chatter"))  # unmatched
        assert store.version > version
        version = store.version
        store.expire(1.5)  # drops the post and nothing unmatched
        assert store.version > version
        version = store.version
        store.expire(3.0)  # drops only the unmatched value
        assert store.version > version
