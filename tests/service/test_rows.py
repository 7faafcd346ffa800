"""The rows a cluster scatter leg reads: :meth:`DiversificationService.rows`.

A leg answers with the instance a batch solve over its labels would
read, clipped at the window of the request's whole label set, counted
back from the newest document the router has routed.  The encoding is
memoized per labels, λ and horizon at one store object and version, so
a repeated leg costs what a cache hit costs, and every write, window
change or restore that changes what the leg reads re-encodes it.
"""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.incremental import MAX_VIEWS, PostStore
from repro.index.inverted_index import Document
from repro.service import DigestRequest

from .conftest import make_docs, make_service, run

LAM = 30.0
ALL = ("golf", "nba", "tech")
LEG = ("golf", "nba")


def leg(lam: float = LAM, **fields) -> DigestRequest:
    return DigestRequest(lam=lam, labels=LEG, **fields)


def count_builds(patch):
    """Count every ``PostStore.materialize`` call from here on (every
    instance a read builds goes through it)."""
    builds = [0]
    materialize = PostStore.materialize

    def counting(self, *args, **kwargs):
        builds[0] += 1
        return materialize(self, *args, **kwargs)

    patch.setattr(PostStore, "materialize", counting)
    return builds


def golf_doc(uid: int, ts: float) -> Document:
    return Document(uid, ts, f"golf putt stream{uid} marker{uid * 17}")


def uids(instance):
    return [post.uid for post in instance.posts]


def test_rows_are_what_a_batch_solve_over_the_leg_reads():
    service = make_service(views=False)
    service.ingest(make_docs())
    rows = service.rows(leg(), ALL)
    local = run(service.digest(leg()))
    assert rows.to_dict() == local.result.instance.to_dict()
    # and the read ran no digest
    assert service.requests == 1 and service.solves == 1


def test_a_repeat_reads_the_memo():
    service = make_service()
    service.ingest(make_docs())
    first = service.rows(leg(), ALL)
    with pytest.MonkeyPatch.context() as patch:
        builds = count_builds(patch)
        again = service.rows(leg(), ALL)
    assert again is first
    assert builds[0] == 0


def test_an_ingest_touching_the_leg_re_encodes():
    service = make_service()
    service.ingest(make_docs())
    first = service.rows(leg(), ALL)
    service.ingest([golf_doc(500, 5000.0)])
    second = service.rows(leg(), ALL)
    assert second is not first
    assert 500 not in uids(first) and uids(second)[-1] == 500


def test_a_window_change_that_expires_nothing_re_encodes():
    # no default window: the store retains everything, so pinning a
    # window on the request's label set moves no store version; it
    # moves the horizon the leg is read at
    service = make_service()
    service.ingest(make_docs())  # values 0 .. 230
    first = service.rows(leg(), ALL)
    version = service._store.version
    service.set_view_window(ALL, 100.0)
    assert service._store.version == version
    second = service.rows(leg(), ALL)
    assert second is not first
    assert min(post.value for post in second.posts) >= 130.0
    assert len(second) < len(first)
    # the leg reads its request's window, not its own label set's
    assert uids(service.rows(leg(), LEG)) == uids(first)


def test_a_restore_re_encodes():
    # a restore rebuilds the store, whose version counts from 0 again:
    # here it comes back to the very version the memo was read at
    service = make_service(stream_algorithm="instant", stream_lam=0.1)

    async def scenario():
        for uid in range(2):
            await service.feed(golf_doc(uid, 1000.0 + 10 * uid))
        checkpoint = service.checkpoint()
        await service.feed(golf_doc(2, 1020.0))
        before, version = service.rows(leg(), ALL), service._store.version
        service.restore(checkpoint)
        await service.feed(golf_doc(3, 1030.0))
        assert service._store.version == version
        return before, service.rows(leg(), ALL)

    before, after = run(scenario())
    assert after is not before
    assert uids(before) == [0, 1, 2]
    assert uids(after) == [0, 1, 3]


def test_the_horizon_counts_back_from_a_newer_value_than_the_stores():
    service = make_service(view_window=100.0)
    service.ingest(make_docs())  # values 0 .. 230
    own = service.rows(leg(), ALL)
    assert min(post.value for post in own.posts) >= 130.0
    routed = service.rows(leg(), ALL, newest=300.0)
    assert min(post.value for post in routed.posts) >= 200.0
    # an older value than the store's newest does not widen the read
    assert uids(service.rows(leg(), ALL, newest=50.0)) == uids(own)


def test_the_memo_is_bounded_by_max_views():
    service = make_service()
    service.ingest(make_docs())
    sizes = []
    for lam in range(2 * MAX_VIEWS + 1):
        service.rows(leg(float(lam)), ALL)
        sizes.append(len(service._rows))
    assert max(sizes) == MAX_VIEWS
    with pytest.MonkeyPatch.context() as patch:
        builds = count_builds(patch)
        service.rows(leg(float(2 * MAX_VIEWS)), ALL)  # the latest: kept
        assert builds[0] == 0


@pytest.mark.parametrize("request_, words", [
    (leg(dimension="sequence"),
     "this service projects values on the 'time' dimension only"),
    (DigestRequest(lam=LAM, labels=("curling",)), "unknown labels"),
    (leg(float("nan")), "lambda must be a non-negative number"),
], ids=["foreign-dimension", "unknown-label", "nan-lambda"])
def test_rows_refuse_what_a_digest_refuses(request_, words):
    service = make_service()
    service.ingest(make_docs())
    with pytest.raises(ReproError, match=words):
        service.rows(request_, ALL)
    assert run(service.digest(request_)).reason.count(words) == 1
