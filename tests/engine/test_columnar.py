"""Columnar snapshots: array fidelity and caching."""

from __future__ import annotations

import gc
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given

from repro.core.instance import Instance
from repro.core.post import Post
from repro.engine import columnar
from repro.engine.columnar import ColumnarInstance, snapshot

from .conftest import engine_instances


@pytest.fixture
def instance() -> Instance:
    return Instance.from_specs(
        [(0.0, "a"), (1.0, "ab"), (2.5, "b"), (4.0, "ab"), (5.0, "a"),
         (9.0, "b")],
        lam=1.5,
    )


class TestColumnarInstance:
    def test_values_aligned_with_posts(self, instance):
        snap = ColumnarInstance(instance)
        assert len(snap) == len(instance)
        for k, post in enumerate(instance.posts):
            assert snap.values[k] == post.value

    def test_values_ascending(self, instance):
        snap = ColumnarInstance(instance)
        assert np.all(np.diff(snap.values) >= 0)

    def test_labels_sorted(self, instance):
        snap = ColumnarInstance(instance)
        assert snap.labels == tuple(sorted(instance.labels))

    def test_posting_indices_match_posting_lists(self, instance):
        snap = ColumnarInstance(instance)
        for label in instance.labels:
            plist = instance.posting(label)
            idx = snap.posting_indices[label]
            assert [instance.posts[int(k)].uid for k in idx] == \
                [p.uid for p in plist]
            assert np.array_equal(
                snap.posting_values[label],
                np.asarray([p.value for p in plist]),
            )

    @given(engine_instances())
    def test_property_posting_fidelity(self, inst):
        snap = ColumnarInstance(inst)
        for label in inst.labels:
            plist = inst.posting(label)
            idx = snap.posting_indices[label]
            assert len(idx) == len(plist)
            assert np.all(np.diff(idx) > 0)  # global order, unique

    @given(engine_instances())
    def test_property_label_sets_recoverable_from_postings(self, inst):
        # the posting arrays alone encode every post's label set
        snap = ColumnarInstance(inst)
        recovered = [set() for _ in range(len(snap))]
        for label, idx in snap.posting_indices.items():
            for k in idx:
                recovered[int(k)].add(label)
        assert [frozenset(r) for r in recovered] == \
            [p.labels for p in inst.posts]

    @given(engine_instances())
    def test_property_posting_values_index_the_value_array(self, inst):
        snap = ColumnarInstance(inst)
        assert snap.lam == inst.lam
        for label, idx in snap.posting_indices.items():
            assert idx.dtype == np.int64
            assert snap.posting_values[label].dtype == np.float64
            assert np.array_equal(snap.posting_values[label],
                                  snap.values[idx])

    @given(engine_instances())
    def test_property_agrees_with_posting_list_arrays(self, inst):
        # the probe and numpy builder read the snapshot; window queries
        # read PostingList.values — both views must be one data
        snap = ColumnarInstance(inst)
        for label in inst.labels:
            assert np.array_equal(snap.posting_values[label],
                                  inst.posting(label).values)

    def test_declared_empty_label_has_empty_arrays(self):
        inst = Instance(
            [Post(uid=0, value=1.0, labels=frozenset("a"))],
            lam=1.0, labels="az",
        )
        snap = ColumnarInstance(inst)
        assert snap.labels == ("a", "z")
        assert snap.posting_indices["z"].tolist() == []
        assert snap.posting_values["z"].tolist() == []
        assert snap.posting_indices["z"].dtype == np.int64


class TestSnapshotCache:
    def test_snapshot_cached_per_instance(self, instance):
        assert snapshot(instance) is snapshot(instance)

    def test_distinct_instances_distinct_snapshots(self, instance):
        other = Instance.from_specs([(0.0, "a")], lam=1.0)
        assert snapshot(instance) is not snapshot(other)

    def test_snapshot_released_with_its_instance(self):
        inst = Instance.from_specs([(0.0, "a"), (2.0, "ab")], lam=1.0)
        snap_ref = weakref.ref(snapshot(inst))
        assert snap_ref() is not None
        del inst
        gc.collect()
        assert snap_ref() is None

    def test_concurrent_snapshot_builds_exactly_once(self, monkeypatch):
        # hammer the cache: many threads released together must agree on
        # one snapshot object and build it exactly once (the unlocked
        # WeakKeyDictionary used to race duplicate builds here)
        inst = Instance.from_specs(
            [(float(k), "ab"[k % 2]) for k in range(50)], lam=1.5
        )
        builds = []
        real = columnar.ColumnarInstance

        class Counting(real):
            def __init__(self, instance):
                builds.append(threading.get_ident())
                super().__init__(instance)

        monkeypatch.setattr(columnar, "ColumnarInstance", Counting)
        threads = 16
        barrier = threading.Barrier(threads)
        results = [None] * threads

        def hammer(slot):
            barrier.wait()
            results[slot] = snapshot(inst)

        workers = [
            threading.Thread(target=hammer, args=(slot,))
            for slot in range(threads)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert len(builds) == 1
        assert all(r is results[0] for r in results)
        assert results[0] is not None
