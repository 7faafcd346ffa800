"""End-to-end tests for :class:`DiversificationService`.

The acceptance criteria from the issue live here: N identical concurrent
requests cost exactly one solver run (asserted through observability
counters) and return byte-identical results; overload degrades down the
ladder and sheds at the hard watermark with zero unhandled exceptions;
injected stream faults surface as health counters, never as crashes.
"""

from __future__ import annotations

import asyncio
import importlib
import json
import math
import threading

import pytest

from repro.errors import ReproError
from repro.core.greedy_sc import greedy_sc
from repro.core.instance import Instance
from repro.core.post import Post
from repro.experiments.common import make_day_instance
from repro.incremental import MAX_VIEWS, REBUILD_RATIO, REBUILD_SLACK
from repro.index.inverted_index import Document
from repro.index.query import LabelMatcher, TopicQuery
from repro.observability import facade, structlog
from repro.pipeline import DiversificationPipeline
from repro.resilience.faults import FaultInjector
from repro.resilience.policies import SanitizationPolicy
from repro.resilience.supervisor import ResilienceConfig
from repro.service import DigestRequest, ServiceConfig, ServiceResponse
from repro.service.service import DEFAULT_DEGRADE_LADDER, \
    SUBSCRIPTION_DEPTH

from .conftest import hold_solves, make_docs, make_queries, \
    make_service, run, solve_entered


def canonical(response) -> str:
    return json.dumps(response.result.to_dict(), sort_keys=True)


# -- served digests run the batch solvers -------------------------------------


@pytest.mark.parametrize("labels", [None, ("golf", "nba")],
                         ids=["all", "subset"])
@pytest.mark.parametrize("algorithm", ["scan", "scan+", "greedy_sc"])
def test_served_digest_matches_batch_pipeline(algorithm, labels):
    # a cold solve is the batch pipeline's digest of the same
    # documents, pick for pick
    service = make_service()
    service.ingest(make_docs())
    response = run(service.digest(DigestRequest(
        lam=25.0, labels=labels, algorithm=algorithm)))
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
    assert counters["greedy_sc.heap.picks"] == \
        response.result.solution.size
    # the windowed heap builds no family: no set cover, builder choice,
    # family builder or numpy builder ran
    assert [name for name in counters if name.startswith((
        "setcover.", "engine.auto.", "greedy_sc.family_", "fastpath.",
    ))] == []


def test_served_cold_digest_builds_no_family(monkeypatch):
    calls = []
    for module, name in (
        ("repro.core.greedy_sc", "build_setcover_family"),
        ("repro.core.fastpath", "build_family_encoded"),
        ("repro.engine.auto", "choose_engine"),
    ):
        owner = importlib.import_module(module)

        def spy(*args, _real=getattr(owner, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
    service = make_service()
    service.ingest(make_docs())
    response = run(service.digest(DigestRequest(
        lam=25.0, algorithm="greedy_sc")))
    service.close()
    assert response.status == "ok" and not response.cached
    assert response.result.solution.size > 0
    assert calls == []
    # the spies see the rescan, which still builds a family
    greedy_sc(response.result.instance, strategy="rescan")
    assert calls[0] == "choose_engine" and len(calls) == 2


# -- cold digests read the post store ----------------------------------------


def twin_corpus():
    """``make_docs`` as head, middle and tail, plus twins (the same text
    under another uid) that SimHash dedup drops, and two unmatched
    documents that are twins of each other."""
    docs = make_docs()
    twins = [Document(100 + i, docs[i].timestamp + 5.0, docs[i].text)
             for i in (0, 4, 8)]
    unmatched = [Document(400, 55.0, "nothing relevant here at all"),
                 Document(401, 155.0, "nothing relevant here at all")]
    # a twin in the middle part: streamed, it arrives before the head
    # document it duplicates, which the batch order still keeps
    streamed_twin = Document(300, 185.0, docs[2].text)
    return docs[:12] + twins + unmatched, docs[12:18] + [streamed_twin], \
        docs[18:]


@pytest.mark.parametrize("arrival", ["ingest", "stream_then_ingest"])
@pytest.mark.parametrize("views", [True, False], ids=["views", "no_views"])
@pytest.mark.parametrize("dedup", [None, 3], ids=["no_dedup", "dedup"])
def test_store_path_matches_the_batch_oracle(dedup, views, arrival):
    # picks and all three counters equal the batch pipeline's digest of
    # the service's corpus; stream-then-ingest under dedup makes the
    # store reproject the corpus in batch order
    head, stream, tail = twin_corpus()
    service = make_service(
        dedup_distance=dedup, views=views,
        stream_algorithm="instant", stream_lam=0.1,
    )
    if arrival == "ingest":
        service.ingest(head + stream)
    else:
        async def feed_all():
            for document in stream:
                await service.feed(document)
        run(feed_all())
        service.ingest(head)
    service.ingest(tail)
    assert service.corpus_size() == len(head + stream + tail)
    for labels in (None, ("golf", "nba")):
        for algorithm in ("greedy_sc", "scan+"):
            response = run(service.digest(DigestRequest(
                lam=25.0, labels=labels, algorithm=algorithm)))
            queries = [q for q in make_queries()
                       if labels is None or q.label in labels]
            expected = DiversificationPipeline(
                queries, lam=25.0, algorithm=algorithm,
                dedup_distance=dedup,
            ).digest(service.corpus())
            assert response.status == "ok"
            assert not response.cached and not response.view
            got = response.result
            assert got.solution.uids == expected.solution.uids
            assert got.instance.posts == expected.instance.posts
            assert (got.matched, got.unmatched_dropped,
                    got.duplicates_dropped) == \
                (expected.matched, expected.unmatched_dropped,
                 expected.duplicates_dropped)
            assert expected.unmatched_dropped > 0
            assert (expected.duplicates_dropped > 0) == \
                (dedup is not None)
    service.close()


@pytest.mark.parametrize("labels", [None, ("golf", "nba")],
                         ids=["all", "subset"])
@pytest.mark.parametrize("views", [True, False], ids=["views", "no_views"])
def test_cold_digest_does_not_rematch_the_corpus(monkeypatch, views,
                                                 labels):
    service = make_service(views=views)
    service.ingest(make_docs())
    calls = []
    match, digest = LabelMatcher.match, DiversificationPipeline.digest

    def counted_match(self, text):
        calls.append("match")
        return match(self, text)

    def counted_digest(self, documents):
        calls.append("digest")
        return digest(self, documents)

    monkeypatch.setattr(LabelMatcher, "match", counted_match)
    monkeypatch.setattr(DiversificationPipeline, "digest", counted_digest)
    response = run(service.digest(DigestRequest(lam=25.0, labels=labels)))
    service.close()
    assert response.status == "ok" and not response.cached
    assert response.result.matched > 0
    assert calls == []


def test_poisoned_store_answers_errors_with_views_off():
    service = make_service(
        views=False, stream_algorithm="instant", stream_lam=0.1,
    )
    service.ingest(make_docs(n=4))
    # a streamed document whose uid collides with an ingested one
    run(service.feed(Document(0, 5000.0, "golf putt clash")))
    response = run(service.digest(DigestRequest(lam=30.0)))
    assert response.status == "error" and response.result is None
    assert "duplicate" in response.reason
    assert service.solves == 0


# -- requests no solve can answer ---------------------------------------------


@pytest.mark.parametrize("lam", [float("nan"), -1.0],
                         ids=["nan", "negative"])
def test_invalid_lambda_is_refused_before_any_work(lam):
    service = make_service()
    service.ingest(make_docs())
    run(service.digest(DigestRequest(lam=25.0)))
    solves, entries = service.solves, len(service.cache)
    stats = service.cache.stats.as_dict()
    for _ in range(3):
        response = run(service.digest(DigestRequest(lam=lam)))
        assert response.status == "error" and response.result is None
        assert "lambda" in response.reason
    assert service.solves == solves
    assert len(service.cache) == entries
    assert service.cache.stats.as_dict() == stats
    # the wire accepts NaN as a float; the service still refuses it
    wired = DigestRequest.from_dict({"lam": "nan"})
    assert run(service.digest(wired)).status == "error"


def test_other_dimension_is_refused_before_any_work():
    service = make_service()
    service.ingest(make_docs())
    response = run(service.digest(DigestRequest(
        lam=25.0, dimension="sentiment")))
    assert response.status == "error" and response.result is None
    assert "'time'" in response.reason
    assert service.solves == 0
    assert len(service.cache) == 0
    # naming the configured dimension is the same as naming none
    named = run(service.digest(DigestRequest(lam=25.0, dimension="time")))
    assert named.status == "ok" and service.solves == 1
    assert run(service.digest(DigestRequest(lam=25.0))).cached


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
    assert service.requests == 10
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


@pytest.mark.parametrize("algorithm", ["scan", "scan+", "greedy_sc"])
def test_concurrent_distinct_requests_each_solve_once(algorithm):
    # distinct keys in flight together: one solve each, none coalesced,
    # and each the batch pipeline's digest at its own lambda
    service = make_service()
    service.ingest(make_docs())
    lams = [20.0, 25.0, 30.0, 40.0]

    async def burst():
        return await asyncio.gather(*[
            service.digest(DigestRequest(lam=lam, algorithm=algorithm))
            for lam in lams
        ])

    responses = run(burst())
    assert service.solves == len(lams)
    assert [r.status for r in responses] == ["ok"] * len(lams)
    assert not any(r.coalesced or r.cached or r.view for r in responses)
    for lam, response in zip(lams, responses):
        expected = DiversificationPipeline(
            make_queries(), lam=lam, algorithm=algorithm,
            dedup_distance=None,
        ).digest(make_docs())
        assert response.result.solution.uids == expected.solution.uids


# -- the solve hop ------------------------------------------------------------


def test_cold_solve_runs_off_the_event_loop_thread():
    service = make_service()
    service.ingest(make_docs())
    solve_job = service._solve_job
    threads = []

    def recording_solve_job(*args):
        threads.append(threading.get_ident())
        return solve_job(*args)

    service._solve_job = recording_solve_job

    async def scenario():
        loop_thread = threading.get_ident()
        response = await service.digest(DigestRequest(lam=30.0))
        return loop_thread, response

    loop_thread, response = run(scenario())
    assert response.status == "ok"
    assert len(threads) == 1 and threads[0] != loop_thread


def test_loop_serves_other_requests_while_a_solve_is_in_flight():
    service = make_service()
    service.ingest(make_docs())

    async def scenario():
        await service.digest(DigestRequest(lam=30.0))  # cached
        entered, release = hold_solves(service)
        cold = asyncio.ensure_future(
            service.digest(DigestRequest(lam=40.0))
        )
        await solve_entered(entered)
        # the held solve occupies a thread, not the loop
        hit = await service.digest(DigestRequest(lam=30.0))
        queues = service.introspect()["queues"]
        release.set()
        return hit, queues, await cold

    hit, queues, cold = run(scenario())
    assert hit.cached and hit.status == "ok"
    # the in-flight solve is what pending and coalescer_inflight count
    assert queues["pending"] == 1 and queues["coalescer_inflight"] == 1
    assert cold.status == "ok" and not cold.cached
    after = service.introspect()["queues"]
    assert after["pending"] == 0 and after["coalescer_inflight"] == 0
    assert service.solves == 2


def test_failing_solve_is_an_error_for_its_own_request_only():
    service = make_service()
    service.ingest(make_docs())
    solve_job = service._solve_job

    def failing_at_lambda_20(algorithm, instance, counters, ctx):
        if instance.lam == 20.0:
            raise RuntimeError("this solve only")
        return solve_job(algorithm, instance, counters, ctx)

    service._solve_job = failing_at_lambda_20

    async def burst():
        return await asyncio.gather(*[
            service.digest(DigestRequest(lam=lam))
            for lam in (20.0, 20.0, 30.0)
        ])

    leader, follower, other = run(burst())
    # the leader and its follower share the failure, nobody else does
    assert leader.status == follower.status == "error"
    assert "this solve only" in follower.reason
    assert service.solves == 2  # the follower shared the failed solve
    assert other.status == "ok" and other.result.solution.size > 0
    assert len(service.cache) == 1  # only the good solve was published


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
    assert service.telemetry.counter("service.status.shed").value == 4


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
        ServiceConfig(stream_algorithm="quantum")


@pytest.mark.parametrize("name, value", [
    ("executor", "thread"),
    ("workers", 2),
    ("coalesce_window", 0.0),
    ("max_batch", 8),
    ("degrade_ladder", ("greedy_sc", "scan")),
    ("cache_ttl", 60.0),
    ("raise_on_shed", True),
    ("subscription_depth", 16),
    ("slo_objective", 0.999),
    ("slo_windows", (60.0, 600.0)),
    ("audit_opt_max", 20),
    ("view_rebuild_ratio", 2.0),
    ("view_rebuild_slack", 4),
    ("max_views", 8),
])
def test_config_has_no_executor_or_batch_knobs(name, value):
    # a cold solve takes one hop to the loop's default executor, and
    # coalescing needs no window; what no deployment tuned is a
    # constant: these knobs are gone, not ignored
    with pytest.raises(TypeError):
        ServiceConfig(**{name: value})


def test_retired_knobs_keep_their_served_values():
    assert DEFAULT_DEGRADE_LADDER == ("greedy_sc", "scan+", "scan")
    assert (REBUILD_RATIO, REBUILD_SLACK) == (3.0, 8)
    assert MAX_VIEWS == 64
    assert SUBSCRIPTION_DEPTH == 256
    service = make_service()
    assert service.slo.objective == 0.99
    assert service.slo.windows == (300.0, 3600.0)
    assert service.auditor.opt_max_posts == 12


@pytest.mark.parametrize("overrides", [
    {"stream_lam": math.nan},
    {"tau": math.nan},
    {"stream_lam": -1.0},
    {"tau": -1.0},
], ids=["nan-lam", "nan-tau", "negative-lam", "negative-tau"])
def test_config_refuses_a_stream_lambda_or_tau_that_is_not_a_number(
    overrides,
):
    # a NaN lambda or tau would reach the stream algorithm, whose
    # deadline loop never drains on it
    with pytest.raises(ReproError):
        ServiceConfig(**overrides)


def test_config_keeps_an_infinite_stream_lambda_and_tau():
    config = ServiceConfig(stream_lam=math.inf, tau=math.inf)
    assert config.stream_lam == math.inf and config.tau == math.inf


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
    service = streaming_service()
    sub = service.subscribe(labels=["golf"])

    async def flood():
        for doc in golf_docs(SUBSCRIPTION_DEPTH + 3):
            await service.feed(doc)

    run(flood())
    kept = sub.drain()
    assert len(kept) == SUBSCRIPTION_DEPTH
    assert sub.dropped == 3
    # the oldest three are gone; the newest survive, in order
    assert [e.post.uid for e in kept] == \
        list(range(3, SUBSCRIPTION_DEPTH + 3))


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


def test_close_is_idempotent_and_not_terminal():
    # the service holds no pool: close() releases nothing, may be
    # called twice, and a request after it is served as before
    service = make_service()
    service.ingest(make_docs(6))
    before = run(service.digest(DigestRequest(lam=30.0)))
    service.close()
    service.close()
    after = run(service.digest(DigestRequest(lam=40.0)))
    assert before.status == after.status == "ok"
    assert service.solves == 2


# -- one record per request ---------------------------------------------------


def latency_counts(service):
    """Observation counts of the service's ``service.latency_s*``
    telemetry histograms, keyed by name."""
    return {
        name: entry["count"]
        for name, entry in service.telemetry.snapshot().items()
        if name.startswith("service.latency_s") and entry["count"]
    }


def serve_seven():
    """Seven requests through a service holding six tokens: a cold
    solve, a coalesced leader and follower, a cache hit, a view hit
    after an ingest, an unknown-label error and a shed.

    Returns the service, the seven responses and, per group of
    concurrent requests, the observations the group added to each
    ``service.latency_s*`` histogram.
    """
    service = make_service(rate=0.0001, burst=6.0)
    service.ingest(make_docs())
    recorded = []

    async def step(*requests):
        before = latency_counts(service)
        responses = await asyncio.gather(
            *[service.digest(request) for request in requests]
        )
        after = latency_counts(service)
        recorded.append({
            name: count - before.get(name, 0)
            for name, count in after.items()
            if count != before.get(name, 0)
        })
        return responses

    async def scenario():
        (cold,) = await step(DigestRequest(lam=30.0))
        leader, follower = await step(
            DigestRequest(lam=25.0), DigestRequest(lam=25.0)
        )
        (hit,) = await step(DigestRequest(lam=30.0))
        service.ingest(make_docs(n=3, offset=500))
        (view,) = await step(DigestRequest(lam=30.0))
        (error,) = await step(DigestRequest(lam=30.0, labels=("nope",)))
        (shed,) = await step(DigestRequest(lam=30.0))
        return cold, leader, follower, hit, view, error, shed

    return service, run(scenario()), recorded


def test_each_served_digest_records_one_latency_on_its_own_path():
    # observability off: the service's own telemetry is the record
    assert not facade.enabled()
    service, responses, recorded = serve_seven()
    cold, leader, follower, hit, view, error, shed = responses

    assert not (cold.cached or cold.view or cold.coalesced)
    assert not leader.coalesced and follower.coalesced
    assert hit.cached and view.view
    assert error.status == "error" and shed.status == "shed"
    # one observation per response; one per served digest on its path
    assert recorded == [
        {"service.latency_s": 1, "service.latency_s.solve": 1},
        # the leader and its follower, one record each
        {"service.latency_s": 2, "service.latency_s.solve": 2},
        {"service.latency_s": 1, "service.latency_s.cache_hit": 1},
        {"service.latency_s": 1, "service.latency_s.view_hit": 1},
        {"service.latency_s": 1},
        {"service.latency_s": 1},
    ]
    counts = latency_counts(service)
    counters = service.telemetry.counters()
    on_paths = sum(
        counts[f"service.latency_s.{path}"]
        for path in ("cache_hit", "view_hit", "solve")
    )
    assert (
        on_paths + counters["service.status.shed"]
        + counters["service.status.error"]
        == counts["service.latency_s"]
        == counters["service.requests"]
        == service.requests == 7
    )
    assert service.errors == 1
    assert counters["service.view_hits"] == 1


def test_facade_holds_no_twin_of_a_request_outcome():
    with facade.session() as bundle:
        serve_seven()
        service = degrade_service()

        async def burst():
            return await asyncio.gather(
                *[
                    service.digest(DigestRequest(lam=float(20 + i)))
                    for i in range(3)
                ]
            )

        assert "degraded" in {r.status for r in run(burst())}

    names = bundle.registry.names()
    twins = {
        "service.requests", "service.errors", "service.shed",
        "service.degraded", "service.view_hits", "service.latency",
    }
    assert twins.isdisjoint(names)
    assert not [
        name for name in names
        if name.startswith(("service.latency.", "service.sessions."))
    ]
    # the components' own counters stay
    counters = bundle.registry.counters()
    assert counters["service.views.hits"] == 1
    assert counters["service.admission.shed"] == 1
    assert counters["service.admission.degrade"] == 2


def test_response_path_names_what_served_it():
    with structlog.capture() as events:
        _, responses, _ = serve_seven()
    assert [response.path for response in responses] == [
        "solve", "solve", "solve", "cache_hit", "view_hit", "error",
        "shed",
    ]
    cold, view = responses[0], responses[4]
    by_trace = {
        event["trace_id"]: event for event in events
        if event["event"] == "service.ok"
    }
    assert by_trace[cold.trace_id]["path"] == "solve"
    assert by_trace[view.trace_id]["path"] == "view_hit"
    # derived from the fields, so not a wire field
    assert "path" not in view.to_dict()
    assert ServiceResponse.from_dict(view.to_dict()).path == "view_hit"


def test_slow_solve_profile_hook_is_gone():
    with pytest.raises(TypeError):
        ServiceConfig(profile_slow_s=1.0)
    service = make_service()
    assert not hasattr(service, "attach_profiler")
    assert "profiling" not in service.introspect()


def test_scrape_ships_only_the_burn_maxima():
    service = make_service()
    service.ingest(make_docs(6))
    run(service.digest(DigestRequest(lam=25.0, session="acme")))
    run(service.digest(DigestRequest(lam=25.0, labels=("nope",))))
    slo = service.scrape()["slo"]
    assert set(slo) == {"max_fast_burn", "max_slow_burn"}
    assert slo["max_fast_burn"] > 0
