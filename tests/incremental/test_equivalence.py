"""Satellite property suite: the same posts ingested in shuffled orders
must leave the maintained view cover verifier-valid and within the
declared drift bound of the batch solver's cover — including across
checkpoint/restore and window expiry."""

import random

import pytest

from repro.core.coverage import uncovered_pairs
from repro.incremental import REBUILD_RATIO, REBUILD_SLACK
from repro.index.inverted_index import Document
from repro.index.query import LabelMatcher, TopicQuery
from repro.pipeline import DiversificationPipeline
from repro.service import DigestRequest, DiversificationService, \
    ServiceConfig

from ..service.conftest import run

TOPIC_TEXTS = ("golf putt", "nba dunk", "cpu kernel")
LAM = 30.0


def make_queries():
    return [
        TopicQuery("golf", ["golf", "putt"]),
        TopicQuery("nba", ["nba", "dunk"]),
        TopicQuery("tech", ["cpu", "kernel"]),
    ]


def make_service(**overrides):
    # dedup stays off: SimHash kept-sets are arrival-order dependent, so
    # shuffled ingest with dedup on would legitimately change the corpus
    overrides.setdefault("dedup_distance", None)
    return DiversificationService(make_queries(), ServiceConfig(**overrides))


def batch_reference(documents, lam=LAM):
    """The batch pipeline's digest of ``documents``: a reference that
    shares no projection with the service under test."""
    return DiversificationPipeline(
        make_queries(), lam=lam, dedup_distance=None
    ).digest(documents)


def topic_docs(n, offset=0, step=10.0):
    docs = []
    for i in range(n):
        uid = offset + i
        text = (
            f"{TOPIC_TEXTS[i % 3]} story{uid} "
            f"tok{uid * 7} pad{uid * 13}"
        )
        docs.append(Document(uid, uid * step, text))
    return docs


def assert_view_within_declared_bound(service):
    """Every servable (non-stale) view satisfies its drift bound."""
    snapshot = service.introspect()["views"]
    assert snapshot is not None
    for view in snapshot["views"]:
        if view["stale"]:
            continue
        bound = REBUILD_RATIO * view["baseline_size"] + REBUILD_SLACK
        assert view["size"] <= bound, view
        assert not view["needs_rebuild"] or view["size"] > bound


@pytest.mark.parametrize("seed", range(5))
def test_shuffled_ingest_matches_batch_reference(seed):
    docs = topic_docs(36)
    rng = random.Random(seed)
    rng.shuffle(docs)
    viewed = make_service(audit_sample=1.0)
    request = DigestRequest(lam=LAM)
    served_from_view = 0
    rounds = 0
    chunk = max(3, 1 + seed)
    for start in range(0, len(docs), chunk):
        batch = docs[start:start + chunk]
        viewed.ingest(batch)
        got = run(viewed.digest(request))
        want = batch_reference(docs[:start + chunk])
        rounds += 1
        # identical projected instance: both paths see one corpus
        assert got.result.instance.posts == want.instance.posts
        # whatever was served must be a valid λ-cover of that instance
        assert uncovered_pairs(
            got.result.instance, got.result.solution.posts
        ) == []
        if got.view:
            served_from_view += 1
        assert_view_within_declared_bound(viewed)
    # deltas, not re-solves, absorbed the later chunks: the batch
    # reference solves once per round
    assert served_from_view > 0
    assert viewed.solves < rounds
    findings = viewed.auditor.audit_pending()
    assert findings and all(f.covered for f in findings)
    assert "view" in {f.source for f in findings}


@pytest.mark.parametrize("seed", range(3))
def test_shuffled_orders_agree_with_each_other(seed):
    """Two services fed the same documents in different orders converge
    to the same served instance, and both serve valid covers."""
    docs = topic_docs(30)
    other = list(docs)
    random.Random(seed).shuffle(other)
    first = make_service()
    second = make_service()
    first.ingest(docs)
    # interleave digests with ingest chunks on the shuffled twin so its
    # view really is built by deltas, not one cold batch solve
    request = DigestRequest(lam=LAM)
    for start in range(0, len(other), 7):
        second.ingest(other[start:start + 7])
        run(second.digest(request))
    a = run(first.digest(request))
    b = run(second.digest(request))
    assert a.result.instance.posts == b.result.instance.posts
    for response in (a, b):
        assert uncovered_pairs(
            response.result.instance, response.result.solution.posts
        ) == []


def streaming_overrides(**overrides):
    overrides.setdefault("stream_algorithm", "instant")
    overrides.setdefault("stream_lam", 0.1)
    return overrides


def test_equivalence_across_checkpoint_restore():
    service = make_service(**streaming_overrides(audit_sample=1.0))
    request = DigestRequest(lam=LAM)
    before = topic_docs(12)

    async def play():
        for doc in before:
            await service.feed(doc)
        checkpoint = service.checkpoint()
        await service.digest(request)
        for doc in topic_docs(9, offset=100):
            await service.feed(doc)
        grown = await service.digest(request)
        service.restore(checkpoint)
        rolled_back = await service.digest(request)
        return grown, rolled_back

    grown, rolled_back = run(play())
    # the rolled-back digest matches the batch pipeline's digest of
    # only the pre-checkpoint documents
    want = batch_reference(before)
    assert rolled_back.result.instance.posts == want.instance.posts
    assert {p.uid for p in grown.result.instance.posts} > \
        {p.uid for p in rolled_back.result.instance.posts}
    for response in (grown, rolled_back):
        assert uncovered_pairs(
            response.result.instance, response.result.solution.posts
        ) == []
    assert_view_within_declared_bound(service)
    findings = service.auditor.audit_pending()
    assert findings and all(f.covered for f in findings)


def test_views_keep_serving_after_restore():
    """Post-restore the rebuilt projection re-seeds on the next solve and
    subsequent ingests are once again absorbed as deltas."""
    service = make_service(**streaming_overrides())
    request = DigestRequest(lam=LAM)

    async def play():
        for doc in topic_docs(9):
            await service.feed(doc)
        checkpoint = service.checkpoint()
        service.restore(checkpoint)
        await service.digest(request)         # re-seeds the view
        service.ingest(topic_docs(3, offset=200))
        return await service.digest(request)

    response = run(play())
    assert response.view
    assert uncovered_pairs(
        response.result.instance, response.result.solution.posts
    ) == []


def test_equivalence_under_window_expiry():
    window = 100.0
    service = make_service(view_window=window, audit_sample=1.0)
    request = DigestRequest(lam=20.0)
    docs = topic_docs(40, step=5.0)
    matcher = LabelMatcher(make_queries())
    for start in range(0, len(docs), 8):
        service.ingest(docs[start:start + 8])
        response = run(service.digest(request))
        horizon = max(d.timestamp for d in docs[:start + 8]) - window
        expected = {
            d.doc_id for d in docs[:start + 8]
            if d.timestamp >= horizon and matcher.match(d.text)
        }
        assert {p.uid for p in response.result.instance.posts} == expected
        assert uncovered_pairs(
            response.result.instance, response.result.solution.posts
        ) == []
        assert_view_within_declared_bound(service)
    views = service.introspect()["views"]
    assert views["store"]["expired"] > 0
    findings = service.auditor.audit_pending()
    assert findings and all(f.covered for f in findings)
