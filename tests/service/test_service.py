"""End-to-end tests for :class:`DiversificationService`.

The acceptance criteria from the issue live here: N identical concurrent
requests cost exactly one solver run (asserted through observability
counters) and return byte-identical results; overload degrades down the
ladder and sheds at the hard watermark with zero unhandled exceptions;
injected stream faults surface as health counters, never as crashes.
"""

from __future__ import annotations

import asyncio
import json
import math

import pytest

from repro.errors import ReproError, ServiceOverloadError
from repro.core.greedy_sc import greedy_sc
from repro.core.instance import Instance
from repro.core.post import Post
from repro.experiments.common import make_day_instance
from repro.index.inverted_index import Document
from repro.index.query import TopicQuery
from repro.observability import facade
from repro.pipeline import DiversificationPipeline
from repro.resilience.faults import FaultInjector
from repro.resilience.policies import SanitizationPolicy
from repro.resilience.supervisor import ResilienceConfig
from repro.service import DigestRequest, ServiceConfig

from .conftest import make_docs, make_queries, make_service, run


def canonical(response) -> str:
    return json.dumps(response.result.to_dict(), sort_keys=True)


# -- served digests run the batch solvers -------------------------------------


@pytest.mark.parametrize("labels", [None, ("golf", "nba")],
                         ids=["all", "subset"])
@pytest.mark.parametrize("algorithm", ["scan", "scan+", "greedy_sc"])
@pytest.mark.parametrize("executor", ["serial", "thread"])
def test_served_digest_matches_batch_pipeline(executor, algorithm, labels):
    # a cold solve on either executor is the batch pipeline's digest of
    # the same documents, pick for pick
    service = make_service(executor=executor)
    service.ingest(make_docs())
    response = run(service.digest(DigestRequest(
        lam=25.0, labels=labels, algorithm=algorithm)))
    service.close()
    queries = [q for q in make_queries()
               if labels is None or q.label in labels]
    expected = DiversificationPipeline(
        queries, lam=25.0, algorithm=algorithm, dedup_distance=None,
    ).digest(make_docs())
    assert response.status == "ok" and not response.cached
    assert expected.solution.size > 0
    assert response.result.solution.uids == expected.solution.uids


DAY_LABELS = tuple(f"q{i}" for i in range(5))


@pytest.fixture(scope="module")
def day_slice():
    """The fig13 day (seed 20140328, |L| = 5) at scale 0.002, 1,443
    posts, and the same posts rendered as keyword documents."""
    posts = make_day_instance(
        seed=20140328, num_labels=len(DAY_LABELS), lam=300.0, scale=0.002,
    ).posts
    documents = [
        Document(post.uid, post.value, " ".join(
            sorted(f"kw{label}" for label in post.labels)
        ) + f" body{post.uid}")
        for post in posts
    ]
    return posts, documents


@pytest.mark.parametrize("labels", [None, ("q0", "q2", "q3")],
                         ids=["all", "subset"])
def test_served_greedy_sc_matches_the_paper_rescan(day_slice, labels):
    # the service's lazy-heap greedy stage picks what the paper's rescan
    # picks, on the workload the benchmark serves
    posts, documents = day_slice
    wanted = frozenset(labels or DAY_LABELS)
    service = make_service(
        [TopicQuery(label, [f"kw{label}"]) for label in DAY_LABELS]
    )
    service.ingest(documents)
    try:
        for lam in (60.0, 300.0, 1800.0):
            response = run(service.digest(DigestRequest(
                lam=lam, labels=labels, algorithm="greedy_sc")))
            assert response.status == "ok"
            assert not response.cached and not response.view
            instance = Instance(
                [Post(p.uid, p.value, p.labels & wanted)
                 for p in posts if p.labels & wanted],
                lam, labels=wanted,
            )
            expected = greedy_sc(instance, strategy="rescan")
            assert response.result.solution.uids == expected.uids
    finally:
        service.close()


def test_served_cold_digest_runs_the_lazy_heap():
    service = make_service()
    service.ingest(make_docs())
    with facade.session() as bundle:
        response = run(service.digest(DigestRequest(
            lam=25.0, algorithm="greedy_sc")))
    service.close()
    counters = bundle.registry.counters()
    assert response.status == "ok" and not response.cached
    assert counters["setcover.lazy_heap.picks"] == \
        response.result.solution.size
    assert [name for name in counters
            if name.startswith("setcover.rescan.")] == []


# -- coalescing (acceptance criterion) ---------------------------------------


def test_identical_concurrent_requests_share_one_solve():
    service = make_service()
    service.ingest(make_docs())
    request = DigestRequest(lam=30.0, labels=("golf", "nba"))

    async def burst():
        return await asyncio.gather(
            *[service.digest(request) for _ in range(10)]
        )

    with facade.session() as bundle:
        responses = run(burst())

    counters = bundle.registry.counters()
    assert counters["service.solves"] == 1
    assert counters["service.coalesced"] == 9
    assert counters["service.requests"] == 10
    assert service.solves == 1
    leaders = [r for r in responses if not r.coalesced]
    assert len(leaders) == 1
    assert all(r.status == "ok" for r in responses)
    payloads = {canonical(r) for r in responses}
    assert len(payloads) == 1  # byte-identical results


def test_equivalent_requests_coalesce_across_label_order():
    """The coalesce key is normalised, not the request object."""
    service = make_service()
    service.ingest(make_docs())

    async def burst():
        return await asyncio.gather(
            service.digest(DigestRequest(lam=30.0, labels=("golf", "nba"))),
            service.digest(DigestRequest(lam=30.0, labels=("nba", "golf"))),
        )

    run(burst())
    assert service.solves == 1


def test_distinct_requests_do_not_coalesce_but_batch():
    service = make_service()
    service.ingest(make_docs())

    async def burst():
        return await asyncio.gather(
            *[
                service.digest(DigestRequest(lam=float(20 + i)))
                for i in range(4)
            ]
        )

    responses = run(burst())
    assert service.solves == 4
    assert not any(r.coalesced for r in responses)
    assert service.batcher.batches == 1  # one executor dispatch


# -- caching -----------------------------------------------------------------


def test_second_request_is_served_from_cache():
    service = make_service()
    service.ingest(make_docs())
    request = DigestRequest(lam=30.0)

    with facade.session() as bundle:
        first = run(service.digest(request))
        second = run(service.digest(request))

    assert not first.cached and second.cached
    assert canonical(first) == canonical(second)
    assert service.solves == 1
    counters = bundle.registry.counters()
    assert counters["service.cache.hits"] == 1
    assert counters["service.cache.misses"] == 1


def test_ingest_invalidates_cache():
    service = make_service()
    service.ingest(make_docs())
    request = DigestRequest(lam=30.0)
    first = run(service.digest(request))
    service.ingest(make_docs(n=6, offset=1000))
    second = run(service.digest(request))
    assert not second.cached
    assert second.epoch > first.epoch
    # the maintained view absorbed the ingest as a delta: the stale
    # cache entry is gone, but no second batch solve ran either —
    # and the new documents are still visible in the served digest
    assert second.view
    assert service.solves == 1
    assert len(second.result.instance.posts) > len(first.result.instance.posts)


def test_ingest_invalidates_cache_views_off():
    # with views disabled the PR-4 contract holds: every post-ingest
    # digest is a fresh batch solve
    service = make_service(views=False)
    service.ingest(make_docs())
    request = DigestRequest(lam=30.0)
    first = run(service.digest(request))
    service.ingest(make_docs(n=6, offset=1000))
    second = run(service.digest(request))
    assert not second.cached
    assert not second.view
    assert second.epoch > first.epoch
    assert service.solves == 2
    assert len(second.result.instance.posts) > len(first.result.instance.posts)


def test_stream_advance_invalidates_cache_only_when_admitted():
    service = make_service()
    service.ingest(make_docs())
    request = DigestRequest(lam=30.0)
    run(service.digest(request))
    epoch = service.epoch

    # an unmatched document is dropped by sanitization: no epoch bump
    run(service.feed(Document(5000, 50000.0, "nothing relevant here")))
    assert service.epoch == epoch
    assert run(service.digest(request)).cached

    # an admitted document advances the corpus: cache invalidated
    run(service.feed(Document(5001, 50010.0, "golf putt streamed fresh")))
    assert service.epoch > epoch
    response = run(service.digest(request))
    assert not response.cached
    assert 5001 in {p.uid for p in response.result.instance.posts}


# -- admission control --------------------------------------------------------


def degrade_service(**overrides):
    overrides.setdefault("soft_watermark", 1)
    overrides.setdefault("hard_watermark", 100)
    overrides.setdefault("degrade_ladder", ("greedy_sc", "scan+", "scan"))
    service = make_service(**overrides)
    service.ingest(make_docs())
    return service


def test_pressure_degrades_down_the_ladder():
    service = degrade_service()

    async def burst():
        return await asyncio.gather(
            *[
                service.digest(DigestRequest(lam=float(20 + i)))
                for i in range(3)
            ]
        )

    responses = run(burst())
    assert [r.status for r in responses] == ["ok", "degraded", "degraded"]
    assert [r.algorithm for r in responses] == ["greedy_sc", "scan+", "scan"]
    assert all(r.result is not None for r in responses)
    assert service.admission.decisions["degrade"] == 2


def test_degradation_clamps_at_the_last_rung():
    service = degrade_service()

    async def burst():
        return await asyncio.gather(
            *[
                service.digest(DigestRequest(lam=float(20 + i)))
                for i in range(6)
            ]
        )

    responses = run(burst())
    assert all(r.result is not None for r in responses)
    assert responses[-1].algorithm == "scan"  # not past the end


def test_hard_watermark_sheds_without_exceptions():
    service = make_service(soft_watermark=1, hard_watermark=2)
    service.ingest(make_docs())

    async def burst():
        return await asyncio.gather(
            *[
                service.digest(DigestRequest(lam=float(20 + i)))
                for i in range(6)
            ]
        )

    with facade.session() as bundle:
        responses = run(burst())

    shed = [r for r in responses if r.status == "shed"]
    served = [r for r in responses if r.result is not None]
    assert len(shed) == 4 and len(served) == 2
    assert all(r.result is None for r in shed)
    assert all("hard watermark" in r.reason for r in shed)
    assert bundle.registry.counters()["service.shed"] == 4


def test_token_bucket_sheds_overflow():
    service = make_service(rate=0.000001, burst=2.0)
    service.ingest(make_docs())

    async def burst():
        return await asyncio.gather(
            *[
                service.digest(DigestRequest(lam=float(20 + i)))
                for i in range(5)
            ]
        )

    responses = run(burst())
    statuses = [r.status for r in responses]
    assert statuses.count("shed") == 3
    assert all("token bucket" in r.reason
               for r in responses if r.status == "shed")


def test_raise_on_shed_opts_into_exceptions():
    service = make_service(
        rate=0.000001, burst=1.0, raise_on_shed=True
    )
    service.ingest(make_docs(n=6))

    async def two():
        await service.digest(DigestRequest(lam=25.0))
        await service.digest(DigestRequest(lam=26.0))

    with pytest.raises(ServiceOverloadError):
        run(two())


# -- error surfacing ----------------------------------------------------------


def test_unknown_labels_become_error_responses():
    service = make_service()
    service.ingest(make_docs(n=6))
    response = run(
        service.digest(DigestRequest(lam=30.0, labels=("astrology",)))
    )
    assert response.status == "error"
    assert response.result is None
    assert "astrology" in response.reason
    assert service.errors == 1


def test_unknown_algorithm_becomes_error_response():
    service = make_service()
    service.ingest(make_docs(n=6))
    response = run(
        service.digest(DigestRequest(lam=30.0, algorithm="quantum"))
    )
    assert response.status == "error"
    assert "quantum" in response.reason
    # the key was released: a valid retry works
    ok = run(service.digest(DigestRequest(lam=30.0)))
    assert ok.status == "ok"


def test_config_rejects_unknown_names():
    with pytest.raises(ReproError):
        ServiceConfig(algorithm="quantum")
    with pytest.raises(ReproError):
        ServiceConfig(degrade_ladder=("greedy_sc", "quantum"))
    with pytest.raises(ReproError):
        ServiceConfig(stream_algorithm="quantum")
    with pytest.raises(ReproError):
        ServiceConfig(executor="process")  # live closures don't pickle


# -- subscriptions ------------------------------------------------------------


def streaming_service(**overrides):
    overrides.setdefault("stream_algorithm", "instant")
    overrides.setdefault("stream_lam", 0.1)
    return make_service(**overrides)


def golf_docs(n, start_uid=0):
    return [
        Document(
            start_uid + i,
            1000.0 + 10.0 * (start_uid + i),
            f"golf putt live{start_uid + i} hole{i * 31}",
        )
        for i in range(n)
    ]


def test_subscription_label_filtering():
    service = streaming_service()
    golf_sub = service.subscribe(labels=["golf"], session="alice")
    all_sub = service.subscribe(session="bob")

    async def play():
        for doc in golf_docs(3):
            await service.feed(doc)
        await service.feed(Document(900, 10000.0, "nba dunk clip900"))

    run(play())
    golf_seen = golf_sub.drain()
    assert len(golf_seen) == 3
    assert all("golf" in e.post.labels for e in golf_seen)
    assert len(all_sub.drain()) == 4
    assert golf_sub.filtered == 1


def test_subscribe_rejects_unknown_labels():
    service = streaming_service()
    with pytest.raises(ReproError):
        service.subscribe(labels=["astrology"])


def test_unsubscribe_stops_delivery():
    service = streaming_service()
    sub = service.subscribe(labels=["golf"])
    run(service.feed(golf_docs(1)[0]))
    service.unsubscribe(sub)
    run(service.feed(golf_docs(1, start_uid=50)[0]))
    assert len(sub.drain()) == 1


def test_subscription_next_awaits_future_emissions():
    service = streaming_service()
    sub = service.subscribe(labels=["golf"])

    async def scenario():
        consumer = asyncio.ensure_future(sub.next())
        await asyncio.sleep(0)  # the consumer is now parked on a waiter
        await service.feed(golf_docs(1)[0])
        return await asyncio.wait_for(consumer, timeout=2)

    emission = run(scenario())
    assert "golf" in emission.post.labels
    assert len(sub) == 0


def test_subscription_overflow_drops_oldest():
    service = streaming_service(subscription_depth=2)
    sub = service.subscribe(labels=["golf"])

    async def flood():
        for doc in golf_docs(5):
            await service.feed(doc)

    run(flood())
    kept = sub.drain()
    assert len(kept) == 2
    assert sub.dropped == 3
    assert [e.post.uid for e in kept] == [3, 4]  # newest survive


def test_finish_fans_out_tail_emissions():
    # tau far beyond the last arrival: every decision deadline is still
    # pending when the stream ends, so the tail only appears on finish()
    service = streaming_service(
        stream_algorithm="stream_scan+", stream_lam=0.1, tau=1000.0
    )
    sub = service.subscribe()

    async def play():
        for doc in golf_docs(4):
            await service.feed(doc)
        return await service.finish()

    tail = run(play())
    assert len(sub.drain()) >= len(tail) > 0


# -- fault tolerance ----------------------------------------------------------


def test_injected_faults_surface_as_health_not_exceptions():
    policy = SanitizationPolicy(
        on_malformed_value="clamp", reorder_buffer=4
    )
    service = streaming_service(
        resilience=ResilienceConfig(policy=policy)
    )
    clean = [
        Post(
            uid=i,
            value=1000.0 + 10.0 * i,
            labels=frozenset({"golf"}),
            text=f"golf putt live{i} hole{i * 31}",
        )
        for i in range(40)
    ]
    injector = FaultInjector(
        seed=7, drop=0.1, duplicate=0.15, delay=0.1,
        reorder=0.1, corrupt=0.15, displacement=3,
    )
    mangled = injector.apply(clean)

    async def play():
        for post in mangled:
            await service.feed(
                Document(post.uid, post.value, post.text)
            )
        await service.flush_stream()
        return await service.digest(DigestRequest(lam=30.0))

    response = run(play())  # zero unhandled exceptions is the assertion
    assert response.status in ("ok", "degraded")
    health = service.health()["supervisor"]
    assert health["arrivals"] == len(mangled)
    assert health["duplicates"] > 0
    assert health["admitted"] <= len(clean)
    # admitted stream documents became digest corpus
    assert service.health()["corpus"]["streamed"] > 0


def test_service_with_math_nan_timestamp_does_not_crash():
    service = streaming_service()
    run(service.feed(Document(1, math.nan, "golf putt broken")))
    assert service.health()["supervisor"]["quarantined"] >= 1


# -- health -------------------------------------------------------------------


def test_health_snapshot_is_json_safe_and_counts():
    service = streaming_service()
    service.ingest(make_docs(n=6))
    sub = service.subscribe(labels=["golf"], session="alice")

    async def act():
        await service.digest(DigestRequest(lam=30.0))
        await service.digest(DigestRequest(lam=30.0))
        for doc in golf_docs(2):
            await service.feed(doc)

    run(act())
    health = json.loads(json.dumps(service.health()))
    assert health["requests"] == 2
    assert health["solves"] == 1
    assert health["cache"]["hits"] == 1
    assert health["corpus"] == {"ingested": 6, "streamed": 2}
    assert health["subscriptions"][str(sub.sid)]["delivered"] == 2
    assert health["pending"] == 0
