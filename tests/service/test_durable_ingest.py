"""Durable ingest wired into the serving tier.

The serving-side contract: replayed ingest goes through the same
supervised feed path as live traffic, every admitted arrival bumps the
cache epoch, and a crash-restart-replay cycle can never serve a digest
cached against a corpus the revived service does not hold.
"""

from __future__ import annotations

import pytest

from repro.resilience.policies import SanitizationPolicy
from repro.resilience.supervisor import ResilienceConfig
from repro.service import DigestRequest

from .conftest import make_docs, make_service, run


def make_durable_service(**overrides):
    overrides.setdefault(
        "resilience", ResilienceConfig(policy=SanitizationPolicy())
    )
    return make_service(**overrides)


@pytest.fixture
def durable_ingest(tmp_path):
    """``durable_ingest(service)`` wires ``service`` to a durable ingest
    pipeline over ``tmp_path``.  Every pipeline opened is closed at
    teardown, so no WAL handle outlives its test."""
    pipelines = []

    def open_pipeline(service):
        pipeline = service.durable_ingest(tmp_path)
        pipelines.append(pipeline)
        return pipeline

    yield open_pipeline
    for pipeline in pipelines:
        pipeline.close()


class TestDurableIngestWiring:
    def test_applied_documents_join_corpus_and_bump_epoch(
        self, durable_ingest
    ):
        service = make_durable_service()
        ingest = durable_ingest(service)
        epoch_before = service.epoch
        for doc in make_docs(9):
            ingest.append(doc)
        ingest.drain()
        ingest.flush()
        assert service.corpus_size() == 9
        assert service.epoch > epoch_before

    def test_ingest_and_feed_share_the_dedup_gate(self, durable_ingest):
        """A document already fed live must not re-enter the corpus
        when its WAL record replays — the supervisor uid gate and the
        idempotency key both refuse it."""
        service = make_durable_service()
        ingest = durable_ingest(service)
        docs = make_docs(6)
        run(service.feed(docs[0]))
        for doc in docs:
            ingest.append(doc)
        ingest.drain()
        ingest.flush()
        assert service.corpus_size() == len(docs)
        assert ingest.duplicate_applies() == 0

    def test_emissions_fan_out_to_subscriptions(self, durable_ingest):
        service = make_durable_service()
        subscription = service.subscribe()
        ingest = durable_ingest(service)
        for doc in make_docs(12):
            ingest.append(doc)
        ingest.drain()
        ingest.flush()
        assert subscription.delivered > 0


class TestCrashRecovery:
    def test_revived_service_matches_uninterrupted_corpus(
        self, durable_ingest
    ):
        service = make_durable_service()
        ingest = durable_ingest(service)
        for doc in make_docs(15):
            ingest.append(doc)
        ingest.drain()
        ingest.flush()
        expected = ingest.corpus_digest()

        revived_service = make_durable_service()
        revived = durable_ingest(revived_service)
        assert revived.recover() is True
        revived.drain()
        revived.flush()
        assert revived.corpus_digest() == expected
        assert revived.duplicate_applies() == 0
        assert revived_service.corpus_size() == service.corpus_size()

    def test_replayed_ingest_invalidates_cached_digests(
        self, durable_ingest
    ):
        """The headline serving property: a digest cached before an
        ingest recovery is unreachable once the replay restores the
        corpus — the restore path bumps the epoch under the cache."""
        service = make_durable_service()
        ingest = durable_ingest(service)
        docs = make_docs(12)
        for doc in docs[:8]:
            ingest.append(doc)
        ingest.drain()
        ingest.flush()

        request = DigestRequest(lam=30.0)
        first = run(service.digest(request))
        again = run(service.digest(request))
        assert again.cached  # sanity: the digest did get cached

        # the ingest consumer crashes; a replacement recovers over the
        # same directory into the same live service, then replays the
        # producer's full batch
        revived = durable_ingest(service)
        revived.recover()
        for doc in docs:
            revived.append(doc)
        revived.drain()
        revived.flush()

        response = run(service.digest(request))
        assert not response.cached
        assert response.epoch > first.epoch
        assert response.result is not None
        assert revived.duplicate_applies() == 0

    def test_recovery_bumps_epoch_before_serving(self, durable_ingest):
        service = make_durable_service()
        ingest = durable_ingest(service)
        for doc in make_docs(6):
            ingest.append(doc)
        ingest.drain()
        ingest.flush()

        revived_service = make_durable_service()
        revived = durable_ingest(revived_service)
        epoch_fresh = revived_service.epoch
        revived.recover()
        assert revived_service.epoch > epoch_fresh
