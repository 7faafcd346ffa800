"""The acceptance parity suite: a 3-node cluster is byte-identical to
one process on the fig13 day workload.

The day slice (see :mod:`tests.cluster.conftest`) has multi-label
posts, so label partitions genuinely produce seam posts — the exact
merge path (seam re-solve) is exercised for real, not vacuously.
Fingerprints are :func:`canonical_fingerprint`: the full digest wire
dict minus timing and trace provenance.

Views are off on both sides (view-maintained covers are verifier-equal
but not byte-identical to fresh batch solves); a separate test pins the
views-on single-owner path.
"""

from __future__ import annotations

import pytest

from repro.cluster.harness import LocalCluster
from repro.cluster.protocol import canonical_fingerprint
from repro.cluster.router import ClusterConfig
from repro.cluster.worker import default_worker_config
from repro.service import DigestRequest, DiversificationService

from .conftest import LAM_S, day_documents, day_queries, run

REQUESTS = (
    # single-label: forwarded whole to one owner
    DigestRequest(lam=LAM_S, labels=("q0",)),
    DigestRequest(lam=LAM_S, labels=("q3",)),
    # label pairs: scatter-gather, seams likely
    DigestRequest(lam=LAM_S, labels=("q0", "q1")),
    DigestRequest(lam=LAM_S, labels=("q2", "q4")),
    # the whole universe: every shard serves
    DigestRequest(lam=LAM_S),
    # a different lambda over a subset
    DigestRequest(lam=LAM_S / 2, labels=("q0", "q2", "q3")),
)


def batch_config():
    return default_worker_config(views=False)


def reference_fingerprints(requests):
    async def go():
        service = DiversificationService(day_queries(), batch_config())
        service.ingest(day_documents())
        try:
            out = []
            for request in requests:
                response = await service.digest(request)
                assert response.status == "ok"
                out.append(canonical_fingerprint(response.result))
            return out
        finally:
            service.close()

    return run(go())


def cluster_responses(requests, **cluster_kwargs):
    async def go():
        cluster_kwargs.setdefault(
            "worker_config", batch_config()
        )
        async with LocalCluster(
            day_queries(), **cluster_kwargs
        ) as cluster:
            await cluster.router.ingest(day_documents())
            return [
                await cluster.router.digest(request)
                for request in requests
            ]

    return run(go())


def test_three_nodes_match_one_process_exactly():
    expected = reference_fingerprints(REQUESTS)
    responses = cluster_responses(REQUESTS, nodes=3)
    seam_requests = 0
    for response, fingerprint in zip(responses, expected):
        assert response.status == "ok"
        assert canonical_fingerprint(response.result) == fingerprint
        seam_requests += bool(response.seam_posts)
    # the day workload's multi-label posts must actually straddle the
    # partition: otherwise the seam re-solve path went untested
    assert seam_requests > 0


def test_replicated_cluster_is_still_exact():
    expected = reference_fingerprints(REQUESTS)
    responses = cluster_responses(
        REQUESTS, nodes=3,
        config=ClusterConfig(replication=2),
    )
    for response, fingerprint in zip(responses, expected):
        assert response.status == "ok"
        assert canonical_fingerprint(response.result) == fingerprint


def test_parity_survives_a_rebalance():
    expected = reference_fingerprints(REQUESTS)

    async def go():
        async with LocalCluster(
            day_queries(), nodes=2, worker_config=batch_config(),
        ) as cluster:
            await cluster.router.ingest(day_documents())
            await cluster.add_node("node2")  # join + handoff + warm
            joined = [
                await cluster.router.digest(request)
                for request in REQUESTS
            ]
            await cluster.remove_node("node1")  # graceful leave
            left = [
                await cluster.router.digest(request)
                for request in REQUESTS
            ]
            return joined, left

    joined, left = run(go())
    for responses in (joined, left):
        for response, fingerprint in zip(responses, expected):
            assert response.status == "ok"
            assert canonical_fingerprint(response.result) == \
                fingerprint


def test_views_on_single_owner_parity():
    # with one node there is no partition: the worker IS a single
    # process, so views-on digests must match a views-on reference
    request = DigestRequest(lam=LAM_S, labels=("q1",))

    async def go():
        reference = DiversificationService(
            day_queries(), default_worker_config()
        )
        reference.ingest(day_documents())
        local = await reference.digest(request)
        reference.close()
        async with LocalCluster(day_queries(), nodes=1) as cluster:
            await cluster.router.ingest(day_documents())
            routed = await cluster.router.digest(request)
        return local, routed

    local, routed = run(go())
    assert routed.status == "ok"
    assert canonical_fingerprint(routed.result) == \
        canonical_fingerprint(local.result)
