"""A view-served digest defers its instance.

A maintained-view read answers with the cover, exact counters and a
snapshot of the store's rows; ``result.instance`` builds the instance
from that snapshot, through ``PostStore.materialize``, only when
something reads it — and then exactly as the store held it at the read,
however far the store has moved since.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.coverage import uncovered_pairs
from repro.errors import ReproError
from repro.incremental import PostStore, StoreSnapshot
from repro.incremental.registry import ViewRegistry
from repro.pipeline import DigestResult
from repro.service import DigestRequest

from .conftest import make_docs, make_service, run

LAM = 30.0


@pytest.fixture
def builds(monkeypatch):
    """Every ``PostStore.materialize`` call, as ``(deferred, labels)``:
    ``deferred`` when it built a snapshot's rows."""
    calls = []
    original = PostStore.__dict__["materialize"]

    def counted(store, labels, lam, min_value=None, rows=None):
        calls.append((rows is not None, tuple(sorted(labels))))
        return original(store, labels, lam, min_value, rows)

    monkeypatch.setattr(PostStore, "materialize", counted)
    return calls


def view_key(labels, lam=LAM):
    return ViewRegistry.key_for(labels, lam, "greedy_sc", "time")


def test_view_read_builds_no_instance(builds):
    service = make_service()
    service.ingest(make_docs())
    request = DigestRequest(lam=LAM)
    run(service.digest(request))                 # solve + seed
    service.ingest(make_docs(n=3, offset=500))   # the store moved
    del builds[:]
    # asyncio.run on the main thread reprs the finished task and its
    # result when it restores the SIGINT handler
    response = run(service.digest(request))
    repr(response)
    assert response.view
    assert isinstance(response.result.source, StoreSnapshot)
    assert builds == []
    # a reader still gets the instance, built once
    first = response.result.instance
    assert response.result.instance is first
    assert builds == [(True, ("golf", "nba", "tech"))]
    assert response.result.matched == len(first.posts)


def test_replace_and_equality_carry_the_source_unbuilt(builds):
    service = make_service()
    service.ingest(make_docs())
    request = DigestRequest(lam=LAM)
    run(service.digest(request))
    service.ingest(make_docs(n=3, offset=500))
    result = run(service.digest(request)).result
    del builds[:]
    moved = dataclasses.replace(result, unmatched_dropped=7)
    assert moved.source is result.source
    assert moved != result and result == dataclasses.replace(result)
    assert builds == []
    # both read the one snapshot, so one build serves both
    assert moved.instance is result.instance
    assert len(builds) == 1


def test_view_instance_is_exact_after_later_writes(builds):
    """The served instance is the store as it was at the read, even
    when first read after ingests, expiry, a narrower window and a
    restore (which rebuilds the store)."""
    window = 200.0
    service = make_service(
        view_window=window, stream_algorithm="instant", stream_lam=0.1,
    )
    labels = ("golf", "nba")
    request = DigestRequest(lam=LAM, labels=labels)

    async def play():
        for doc in make_docs(n=30):
            await service.feed(doc)
        checkpoint = service.checkpoint()
        await service.digest(request)            # solve + seed
        await service.feed(make_docs(n=1, offset=30)[0])
        served = await service.digest(request)
        assert served.view
        store = service._store
        horizon = service._views.get(view_key(labels)).horizon
        expected = store.materialize(labels, LAM, min_value=horizon)
        del builds[:]
        # later writes: expiry at the old end, a narrower window for
        # this label set, then a restore that rebuilds the store
        service.ingest(make_docs(n=12, offset=60))
        assert store.stats()["expired"] > 0
        service.set_view_window(labels, window / 4)
        service.restore(checkpoint)
        assert service._store is not store
        return served, expected

    served, expected = run(play())
    assert builds == []
    instance = served.result.instance
    assert builds == [(True, labels)]
    assert instance.posts == expected.posts
    assert instance.labels == expected.labels == frozenset(labels)
    assert instance.lam == expected.lam == LAM
    assert served.result.matched == len(expected.posts)
    assert uncovered_pairs(instance, served.result.solution.posts) == []


def test_auditor_audits_the_served_epoch():
    """Audited off the request path after the store moved past the
    window edge, a view digest still verifies against the instance it
    was served over."""
    window = 100.0
    service = make_service(view_window=window, audit_sample=1.0)
    request = DigestRequest(lam=LAM)
    service.ingest(make_docs(n=20))
    run(service.digest(request))                 # solve + seed
    service.ingest(make_docs(n=2, offset=20))
    served = run(service.digest(request))
    assert served.view
    # far past the window edge: every served member expires, and the
    # new posts are ones the served cover never saw
    service.ingest(make_docs(n=12, offset=200))
    findings = service.auditor.audit_pending()
    assert [f.source for f in findings] == ["batch", "view"]
    assert all(f.covered for f in findings)
    live = service._store.materialize(("golf", "nba", "tech"), LAM)
    assert uncovered_pairs(live, served.result.solution.posts)


def test_a_result_takes_exactly_one_of_instance_and_source():
    service = make_service()
    service.ingest(make_docs())
    result = run(service.digest(DigestRequest(lam=LAM))).result
    fields = dict(
        matched=1, duplicates_dropped=0, unmatched_dropped=0,
    )
    with pytest.raises(ReproError):
        DigestResult(result.solution, **fields)
    with pytest.raises(ReproError):
        DigestResult(
            result.solution, result.instance, source=result.instance,
            **fields,
        )
