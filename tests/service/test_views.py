"""Service-level tests for the incremental read path: view serving,
epoch discipline, restore invalidation, windowing, poisoning, and the
view-related introspection surfaces."""

from __future__ import annotations

import asyncio
import json
import math

import pytest

from repro.core.coverage import uncovered_pairs
from repro.errors import ReproError
from repro.index.inverted_index import Document
from repro.observability import facade
from repro.service import DigestRequest, ServiceConfig

from .conftest import hold_solves, make_docs, make_service, run, \
    solve_entered


# -- serving ------------------------------------------------------------------


def test_view_serves_after_ingest_without_resolve():
    service = make_service()
    service.ingest(make_docs())
    request = DigestRequest(lam=30.0)

    with facade.session() as bundle:
        run(service.digest(request))          # solve + seed
        service.ingest(make_docs(n=3, offset=500))
        response = run(service.digest(request))

    assert response.view and not response.cached
    assert service.solves == 1
    assert response.result.solution.algorithm.startswith("view:")
    assert uncovered_pairs(
        response.result.instance, response.result.solution.posts
    ) == []
    counters = bundle.registry.counters()
    assert counters["service.views.hits"] == 1
    assert counters["service.views.seeds"] == 1


def test_unmatched_only_ingest_keeps_cache_entry():
    service = make_service()
    service.ingest(make_docs())
    request = DigestRequest(lam=30.0)
    run(service.digest(request))
    # an unmatched document touches no labels: the fine-grained epoch
    # bump carries the cached digest forward instead of purging it
    service.ingest([Document(999, 9990.0, "nothing relevant here")])
    second = run(service.digest(request))
    assert second.cached and not second.view
    assert service.cache.stats.carried_forward == 1


def test_view_result_counts_match_batch_result():
    service = make_service()
    service.ingest(make_docs())
    request = DigestRequest(lam=30.0)
    first = run(service.digest(request))
    # one matched doc (invalidates golf entries) plus one unmatched doc
    # (never enters the instance, still counted as a live document)
    service.ingest([
        Document(998, 9980.0, "golf putt fresh nine98"),
        Document(999, 9990.0, "nothing relevant here"),
    ])
    second = run(service.digest(request))
    assert second.view
    assert second.result.matched == len(second.result.instance.posts)
    assert second.result.matched == first.result.matched + 1
    assert second.result.unmatched_dropped == \
        first.result.unmatched_dropped + 1


def test_view_served_response_round_trips_to_dict():
    service = make_service()
    service.ingest(make_docs())
    request = DigestRequest(lam=30.0)
    run(service.digest(request))
    service.ingest(make_docs(n=3, offset=500))
    response = run(service.digest(request))
    payload = response.to_dict()
    json.dumps(payload)
    assert payload["view"] is True and payload["cached"] is False


def test_cache_hit_still_wins_over_view():
    service = make_service()
    service.ingest(make_docs())
    request = DigestRequest(lam=30.0)
    run(service.digest(request))
    second = run(service.digest(request))
    assert second.cached and not second.view


# -- epoch discipline ---------------------------------------------------------


def test_stale_epoch_view_never_served():
    service = make_service()
    service.ingest(make_docs())
    request = DigestRequest(lam=30.0)
    run(service.digest(request))
    assert service._views is not None
    # wind the registry back and purge the cache: the request's epoch
    # no longer matches the registry's committed one — the read must
    # miss, and the solve's seed is refused as dead-epoch
    service._views.epoch -= 1
    service.cache.bump_epoch("test-purge")
    response = run(service.digest(request))
    assert not response.view
    assert service._views.stale_reads >= 1
    assert service._views.stale_seeds >= 1


def test_solve_in_flight_across_an_ingest_seeds_no_view():
    # a solve still on its thread when an ingest commits a new epoch is
    # served, but its cover must not seed a view at the new epoch; the
    # next solve seeds it (the restore twin is in test_invalidation.py)
    service = make_service()
    service.ingest(make_docs())
    request = DigestRequest(lam=30.0)

    async def scenario():
        entered, release = hold_solves(service)
        task = asyncio.ensure_future(service.digest(request))
        await solve_entered(entered)
        service.ingest(make_docs(n=3, offset=500))
        release.set()
        raced = await task
        assert (service._views.seeds, service._views.stale_seeds) == (0, 1)
        resolved = await service.digest(request)
        service.ingest(make_docs(n=3, offset=600))
        return raced, resolved, await service.digest(request)

    raced, resolved, read = run(scenario())
    assert raced.status == "ok" and raced.epoch < resolved.epoch
    assert not (resolved.cached or resolved.view)
    assert (service._views.seeds, service._views.stale_seeds) == (1, 1)
    assert read.view and read.epoch == service.epoch
    assert service.solves == 2


def test_dimension_override_bypasses_views():
    service = make_service()
    service.ingest(make_docs())
    run(service.digest(DigestRequest(lam=30.0)))
    response = run(
        service.digest(DigestRequest(lam=30.0, dimension="sequence"))
    )
    assert not response.view
    # and the off-dimension solve did not seed a view on its dimension
    assert all(
        v["dimension"] == "time"
        for v in service.introspect()["views"]["views"]
    )


def test_dead_epoch_seed_is_refused():
    from repro.service import ViewRegistry

    service = make_service()
    service.ingest(make_docs(n=6))
    registry = service._views
    key = ViewRegistry.key_for(("golf",), 30.0, "greedy_sc", "time")
    # a solve that straddled an invalidation carries a dead epoch; the
    # registry must refuse it, mirroring cache.put's stale-drop rule
    assert registry.seed(key, [], 1, epoch=registry.epoch - 1) is None
    assert registry.stale_seeds == 1
    assert registry.get(key) is None


# -- restore / poisoning ------------------------------------------------------


def streaming_service(**overrides):
    overrides.setdefault("stream_algorithm", "instant")
    overrides.setdefault("stream_lam", 0.1)
    return make_service(**overrides)


def golf_stream_docs(n, start_uid=0):
    return [
        Document(
            start_uid + i,
            1000.0 + 10.0 * (start_uid + i),
            f"golf putt live{start_uid + i} hole{i * 31}",
        )
        for i in range(n)
    ]


def test_restore_invalidates_views_then_reseeds():
    service = streaming_service()
    request = DigestRequest(lam=30.0)

    async def play():
        for doc in golf_stream_docs(4):
            await service.feed(doc)
        await service.digest(request)
        checkpoint = service.checkpoint()
        service.restore(checkpoint)
        return await service.digest(request)

    response = run(play())
    # first post-restore read cannot come from a view (all invalidated)
    assert not response.view
    assert service.solves == 2
    # but the solve re-seeded: the next delta is absorbed incrementally
    run(service.feed(golf_stream_docs(1, start_uid=90)[0]))
    after = run(service.digest(request))
    assert after.view


def test_duplicate_uid_across_paths_poisons_views():
    service = streaming_service()
    service.ingest(make_docs(n=4))
    with facade.session() as bundle:
        # stream a doc whose uid collides with an ingested one
        run(service.feed(Document(0, 5000.0, "golf putt clash")))
    assert service._views_poisoned
    counters = bundle.registry.counters()
    assert counters["service.views.poisoned"] == 1
    # the corpus genuinely holds duplicate uids, which the batch
    # pipeline also rejects — poisoning turns that into an error
    # *response*, never a crash or a stale view serve
    response = run(service.digest(DigestRequest(lam=30.0)))
    assert response.status == "error" and not response.view
    assert "duplicate" in response.reason
    assert service.health()["views"]["poisoned"]


def test_restore_unpoisons_views():
    service = streaming_service()

    async def play():
        for doc in golf_stream_docs(3):
            await service.feed(doc)
        checkpoint = service.checkpoint()
        service.ingest([Document(0, 5000.0, "golf putt clash")])
        assert service._views_poisoned
        # roll back to the checkpoint: the clash document is forgotten
        # by the stream journal but not by _ingested — rebuild decides
        service.restore(checkpoint)

    run(play())
    # the rebuild re-hit the duplicate (ingested docs survive restore),
    # so views stay dark — poisoning is sticky until a clean rebuild
    assert service._views_poisoned


# -- windowing ----------------------------------------------------------------


def test_view_window_requires_time_dimension_and_no_dedup():
    with pytest.raises(ReproError):
        ServiceConfig(view_window=10.0, dedup_distance=None,
                      dimension="sequence")
    with pytest.raises(ReproError):
        ServiceConfig(view_window=10.0, dedup_distance=3)
    with pytest.raises(ReproError):
        ServiceConfig(view_window=10.0, dedup_distance=None, views=False)
    with pytest.raises(ReproError):
        ServiceConfig(view_window=-1.0, dedup_distance=None)


def test_a_nan_view_window_is_refused():
    # a NaN window would serve with no window at all
    with pytest.raises(ReproError, match="view_window"):
        ServiceConfig(view_window=math.nan, dedup_distance=None)
    service = make_service()
    with pytest.raises(ReproError, match="view_window"):
        service.set_view_window(("golf",), math.nan)


def test_an_infinite_view_window_keeps_every_post():
    service = make_service(view_window=math.inf)
    service.ingest(make_docs(n=12, step=10.0))
    response = run(service.digest(DigestRequest(lam=10.0)))
    assert len(response.result.instance.posts) == 12


def test_view_window_bounds_served_instance():
    service = make_service(view_window=50.0)
    request = DigestRequest(lam=10.0)
    service.ingest(make_docs(n=12, step=10.0))  # values 0..110
    response = run(service.digest(request))
    values = [p.value for p in response.result.instance.posts]
    assert min(values) >= 110.0 - 50.0
    assert service.introspect()["views"]["store"]["expired"] > 0


# -- introspection ------------------------------------------------------------


def test_health_and_introspect_expose_views():
    service = make_service()
    service.ingest(make_docs())
    request = DigestRequest(lam=30.0)
    run(service.digest(request))
    service.ingest(make_docs(n=3, offset=500))
    run(service.digest(request))

    health = service.health()["views"]
    assert not health["poisoned"]
    assert health["hits"] == 1 and health["seeds"] == 1

    deep = service.introspect()["views"]
    json.dumps(deep)
    (view,) = deep["views"]
    assert view["ledger"]["inserts"] >= 3
    assert view["baseline_size"] >= 1

    service_off = make_service(views=False)
    assert service_off.health()["views"] is None
    assert service_off.introspect()["views"] is None


def test_views_off_service_never_serves_views():
    service = make_service(views=False)
    service.ingest(make_docs())
    request = DigestRequest(lam=30.0)
    run(service.digest(request))
    service.ingest(make_docs(n=3, offset=500))
    response = run(service.digest(request))
    assert not response.view
    assert service.solves == 2
