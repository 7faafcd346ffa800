"""Checkpoint-restore cache coherence (satellite 6).

The scenario: a service streams along, takes a checkpoint, keeps
streaming and caches digests computed against that *newer* corpus, then
crashes and is restored from the checkpoint.  The restored service has
rolled back to the checkpoint's corpus — serving any digest cached after
the checkpoint would hand out posts the service no longer remembers.
The epoch bump inside :meth:`DiversificationService.restore` is what
forbids that; these tests pin it.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import ReproError
from repro.index.inverted_index import Document
from repro.service import DigestRequest

from .conftest import hold_solves, make_service, run, solve_entered


def golf_doc(uid: int, ts: float, extra: str = "") -> Document:
    return Document(uid, ts, f"golf putt stream{uid} marker{uid * 17} {extra}")


def streaming_service(**overrides):
    overrides.setdefault("stream_algorithm", "instant")
    overrides.setdefault("stream_lam", 0.1)
    return make_service(**overrides)


def test_restore_must_not_serve_post_checkpoint_cached_digests():
    service = streaming_service()
    request = DigestRequest(lam=30.0, labels=("golf",))

    async def scenario():
        # phase 1: stream to a known-good point, checkpoint it
        for i in range(4):
            await service.feed(golf_doc(i, 1000.0 + 10 * i))
        checkpoint = service.checkpoint()

        # phase 2: stream PAST the checkpoint, then cache a digest that
        # can see the post-checkpoint posts
        for i in range(4, 8):
            await service.feed(golf_doc(i, 1000.0 + 10 * i))
        newer = await service.digest(request)
        assert {p.uid for p in newer.result.instance.posts} == set(range(8))
        cached = await service.digest(request)
        assert cached.cached  # the dangerous entry exists

        # phase 3: crash-and-restore to the checkpoint
        pre_restore_epoch = service.epoch
        new_epoch = service.restore(checkpoint)
        assert new_epoch > pre_restore_epoch

        # the restored service recomputes: no cache hit, and the digest
        # only contains the checkpointed half of the stream
        recovered = await service.digest(request)
        return newer, recovered

    newer, recovered = run(scenario())
    assert not recovered.cached
    assert recovered.epoch > newer.epoch
    recovered_uids = {p.uid for p in recovered.result.instance.posts}
    assert recovered_uids == {0, 1, 2, 3}  # nothing from the lost future


def test_restore_rolls_back_streamed_corpus_but_keeps_ingested():
    from .conftest import make_docs

    service = streaming_service()
    service.ingest(make_docs(n=6))

    async def scenario():
        for i in range(3):
            await service.feed(golf_doc(100 + i, 5000.0 + 10 * i))
        checkpoint = service.checkpoint()
        for i in range(3, 9):
            await service.feed(golf_doc(100 + i, 5000.0 + 10 * i))
        assert service.health()["corpus"] == {"ingested": 6, "streamed": 9}
        service.restore(checkpoint)
        assert service.health()["corpus"] == {"ingested": 6, "streamed": 3}

    run(scenario())


def test_stream_continues_after_restore():
    service = streaming_service()

    async def scenario():
        for i in range(3):
            await service.feed(golf_doc(i, 1000.0 + 10 * i))
        checkpoint = service.checkpoint()
        await service.feed(golf_doc(3, 1030.0))
        service.restore(checkpoint)
        # uid 3 was rolled back: re-feeding it is not a duplicate
        emissions = await service.feed(golf_doc(3, 1030.0, "redelivered"))
        assert emissions
        assert service.health()["supervisor"]["duplicates"] == 0
        # but a checkpointed uid IS still a duplicate after restore
        await service.feed(golf_doc(2, 1035.0, "late duplicate"))
        assert service.health()["supervisor"]["duplicates"] == 1
        return service.health()["corpus"]["streamed"]

    assert run(scenario()) == 4


def test_near_duplicate_dedup_survives_restore():
    """adopt_supervisor rebuilds the SimHash index from the journal."""
    service = streaming_service(dedup_distance=3)
    base = "golf putt morning round on the lakeside course today"

    async def scenario():
        await service.feed(Document(0, 1000.0, base))
        checkpoint = service.checkpoint()
        service.restore(checkpoint)
        # an exact near-twin (same text, new uid) must still be dropped
        emissions = await service.feed(Document(1, 1010.0, base))
        assert emissions == []
        assert service.health()["corpus"]["streamed"] == 1

    run(scenario())


def test_solve_in_flight_across_restore_is_served_but_not_published():
    """A cold solve still running on its thread when the service is
    restored finishes, and is served at its key's epoch; the cache and
    the view registry refuse to publish it at the restored epoch."""
    service = streaming_service()
    request = DigestRequest(lam=30.0, labels=("golf",))

    async def scenario():
        for i in range(4):
            await service.feed(golf_doc(i, 1000.0 + 10 * i))
        checkpoint = service.checkpoint()
        for i in range(4, 8):
            await service.feed(golf_doc(i, 1000.0 + 10 * i))
        entered, release = hold_solves(service)
        task = asyncio.ensure_future(service.digest(request))
        await solve_entered(entered)
        key_epoch = service.epoch
        stale_drops = service.cache.stats.stale_drops
        views = service.introspect()["views"]
        new_epoch = service.restore(checkpoint)
        release.set()
        in_flight = await task
        assert service.cache.stats.stale_drops == stale_drops + 1
        assert len(service.cache) == 0
        after_views = service.introspect()["views"]
        assert after_views["seeds"] == views["seeds"]
        assert after_views["stale_seeds"] == views["stale_seeds"] + 1
        after = await service.digest(request)  # released: runs at once
        return key_epoch, new_epoch, in_flight, after

    key_epoch, new_epoch, in_flight, after = run(scenario())
    assert in_flight.status == "ok" and not in_flight.cached
    assert in_flight.epoch == key_epoch < new_epoch
    # solved over the pre-restore corpus, the future the restore forgot
    assert {p.uid for p in in_flight.result.instance.posts} == set(range(8))
    # the next digest solves afresh at the restored epoch
    assert not (after.cached or after.view or after.coalesced)
    assert after.epoch == new_epoch
    assert {p.uid for p in after.result.instance.posts} == {0, 1, 2, 3}
    assert service.solves == 2


def test_checkpoint_before_any_feed_is_an_error():
    service = streaming_service()
    with pytest.raises(ReproError):
        service.checkpoint()
