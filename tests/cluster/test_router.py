"""Router tests: routing, scatter-gather, failover, rebalance.

All parity assertions compare :func:`canonical_fingerprint` of the
routed digest against a single-process reference service over the same
documents.  Views are off on both sides here — view-maintained covers
are verifier-equal but not byte-identical to fresh batch solves, and
these tests pin the *batch* parity guarantee.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import replace as _dc_replace

import pytest

from repro.cluster.harness import LocalCluster
from repro.cluster.protocol import OP_SET_WINDOW, ClusterError, \
    NodeUnavailableError, WorkerFaultError, canonical_fingerprint
from repro.cluster.router import ClusterConfig, ClusterRouter
from repro.cluster.worker import default_worker_config
from repro.core.coverage import verify_cover
from repro.core.instance import Instance
from repro.core.post import Post
from repro.index.inverted_index import Document
from repro.observability import structlog
from repro.service import DEGRADE, AdmissionController, \
    AdmissionDecision, DigestRequest, DiversificationService, \
    ResultCache, ViewRegistry

from ..conftest import pack, unpack

from .conftest import (
    LAM_S,
    day_documents,
    day_queries,
    make_docs,
    make_queries,
    run,
    wide_universe,
)
from .test_parity import REQUESTS as PARITY_REQUESTS

LAM = 30.0


def batch_config():
    return default_worker_config(views=False)


def fast_cluster(**overrides) -> ClusterConfig:
    overrides.setdefault("hedge_delay", 0.05)
    overrides.setdefault("request_timeout", 5.0)
    return ClusterConfig(**overrides)


def reference_service(docs, queries=None) -> DiversificationService:
    service = DiversificationService(
        make_queries() if queries is None else queries, batch_config()
    )
    service.ingest(docs)
    return service


async def reference_fingerprint(
    docs, request: DigestRequest, queries=None
) -> str:
    service = reference_service(docs, queries)
    try:
        response = await service.digest(request)
        assert response.result is not None
        return canonical_fingerprint(response.result)
    finally:
        service.close()


# -- configuration ---------------------------------------------------------


def test_config_validation():
    with pytest.raises(ClusterError):
        ClusterConfig(replication=0)
    with pytest.raises(ClusterError):
        ClusterConfig(request_timeout=0.0)
    with pytest.raises(ClusterError):
        ClusterConfig(hedge_delay=-1.0)


@pytest.mark.parametrize("name, value", [
    ("request_timeout", math.nan),
    ("heartbeat_interval", math.nan),
    ("heartbeat_timeout", math.nan),
    ("hedge_delay", math.nan),
    ("heartbeat_interval", 0.0),
    ("heartbeat_timeout", 0.0),
])
def test_config_refuses_a_nan_or_zero_time(name, value):
    # a NaN deadline expires at once, and a NaN heartbeat interval
    # never wakes the loop
    with pytest.raises(ClusterError, match=name):
        ClusterConfig(**{name: value})


def test_config_keeps_infinite_times():
    config = ClusterConfig(
        request_timeout=math.inf, heartbeat_interval=math.inf,
        heartbeat_timeout=math.inf, hedge_delay=math.inf,
    )
    assert config.request_timeout == math.inf


@pytest.mark.parametrize("name, value", [
    ("virtual_nodes", 64),
    ("warm_keys", 16),
    ("stitch_mode", "stitch"),
    ("stitch_mode", "sideways"),
])
def test_config_has_no_ring_warm_or_stitch_knobs(name, value):
    # the ring runs HashRing's default vnodes, there is no warm list,
    # and the router solves every scatter's rows: gone, not ignored
    with pytest.raises(TypeError):
        ClusterConfig(**{name: value})


def test_router_without_nodes_serves_an_error():
    async def go():
        router = ClusterRouter(make_queries())
        response = await router.digest(DigestRequest(lam=LAM))
        assert response.status == "error"
        assert "no nodes" in response.reason
        await router.close()

    run(go())


# -- routing and merging ---------------------------------------------------


def test_single_label_routes_to_the_owner():
    async def go():
        docs = make_docs(24)
        async with LocalCluster(
            make_queries(), nodes=3, config=fast_cluster(),
            worker_config=batch_config(),
        ) as cluster:
            await cluster.router.ingest(docs)
            request = DigestRequest(lam=LAM, labels=("golf",))
            response = await cluster.router.digest(request)
            assert response.status == "ok"
            assert response.shards == (
                cluster.router.ring.owner("golf"),
            )
            assert response.seam_posts == 0
            assert response.result is not None
            assert canonical_fingerprint(response.result) == \
                await reference_fingerprint(docs, request)

    run(go())


def test_multi_label_scatter_gather_is_byte_identical():
    queries, docs = wide_universe()

    async def go():
        async with LocalCluster(
            queries, nodes=3, config=fast_cluster(),
            worker_config=batch_config(),
        ) as cluster:
            await cluster.router.ingest(docs)
            # labels=None means the whole universe: every shard serves
            request = DigestRequest(lam=LAM)
            response = await cluster.router.digest(request)
            assert response.status == "ok"
            assert response.result is not None
            # the owners differ, so the legs go through the merge
            assert len(response.shards) > 1
            # every post carries one label: no seams, and the merged
            # columns are re-solved all the same
            assert response.seam_posts == 0
            assert response.resolves == 1
            assert canonical_fingerprint(response.result) == \
                await reference_fingerprint(docs, request, queries)
            owners = {
                cluster.router.ring.owner(query.label)
                for query in queries
            }
            assert set(response.shards) == owners

    run(go())


@pytest.mark.parametrize("algorithm", ["scan", "scan+", "greedy_sc"])
def test_a_seam_free_scatter_re_solves_like_one_process(algorithm):
    # eight one-keyword topics over three nodes: the digest scatters,
    # no post spans two legs, and the re-solve of the merged columns is
    # the single-process answer
    queries, docs = wide_universe()
    request = DigestRequest(lam=LAM, algorithm=algorithm)

    async def go():
        async with LocalCluster(
            queries, nodes=3, config=fast_cluster(),
            worker_config=batch_config(),
        ) as cluster:
            await cluster.router.ingest(docs)
            response = await cluster.router.digest(request)
        reference = DiversificationService(queries, batch_config())
        reference.ingest(docs)
        local = await reference.digest(request)
        return response, local

    response, local = run(go())
    assert response.status == "ok"
    assert len(response.shards) > 1 and response.seam_posts == 0
    assert response.resolves == 1
    assert canonical_fingerprint(response.result) == \
        canonical_fingerprint(local.result)


@pytest.mark.parametrize("request_, reason", [
    (DigestRequest(lam=math.nan),
     "lambda must be a non-negative number, got nan"),
    (DigestRequest(lam=-1.0),
     "lambda must be a non-negative number, got -1.0"),
    (DigestRequest(lam=LAM, algorithm="bogus"),
     "unknown algorithm 'bogus'"),
], ids=["nan-lambda", "negative-lambda", "unknown-algorithm"])
def test_a_request_no_worker_can_answer_is_refused_before_it_scatters(
    request_, reason
):
    queries, docs = wide_universe()

    async def go():
        async with LocalCluster(
            queries, nodes=3, config=fast_cluster(),
            worker_config=batch_config(),
        ) as cluster:
            router = cluster.router
            await router.ingest(docs)
            response = await router.digest(request_)
        reference = reference_service(docs, queries)
        local = await reference.digest(request_)
        reference.close()
        return response, local, router.scatter_legs, router.errors

    response, local, legs, errors = run(go())
    assert response.status == local.status == "error"
    assert response.result is None
    # in one process's words
    assert response.reason.startswith(reason)
    assert response.reason in local.reason
    assert response.missing_labels == ()
    assert legs == 0
    assert errors == 1


def test_unknown_label_is_an_error_response():
    async def go():
        async with LocalCluster(
            make_queries(), nodes=2, config=fast_cluster(),
            worker_config=batch_config(),
        ) as cluster:
            response = await cluster.router.digest(
                DigestRequest(lam=LAM, labels=("curling",))
            )
            assert response.status == "error"
            assert "unknown labels" in response.reason
            assert cluster.router.errors == 1

    run(go())


# -- ingest routing --------------------------------------------------------


def test_ingest_fans_out_to_every_replica():
    async def go():
        docs = make_docs(24)
        async with LocalCluster(
            make_queries(), nodes=3,
            config=fast_cluster(replication=2),
            worker_config=batch_config(),
        ) as cluster:
            report = await cluster.router.ingest(docs)
            assert report["documents"] == 24
            assert report["unrouted"] == 0
            assert report["failed"] == []
            # every doc matches exactly one label -> lands on exactly
            # its two replicas
            total = sum(
                len(cluster.worker(name)._documents)
                for name in cluster.names
            )
            assert total == 2 * 24

    run(go())


def test_unmatched_documents_are_counted_not_shipped():
    queries, docs = wide_universe()

    async def go():
        async with LocalCluster(
            queries, nodes=3, config=fast_cluster(),
            worker_config=batch_config(),
        ) as cluster:
            stray = Document(99, 990.0, "nothing relevant here")
            report = await cluster.router.ingest(docs[:12] + [stray])
            assert report["documents"] == 13
            assert report["unrouted"] == 1
            held = sum(
                len(cluster.worker(name)._documents)
                for name in cluster.names
            )
            assert held == 12  # the stray went nowhere
            # ...but it still counts toward the cluster-wide
            # unmatched_dropped the merge reports, matching a single
            # process that saw it
            response = await cluster.router.digest(
                DigestRequest(lam=LAM)
            )
            assert len(response.shards) > 1
            assert response.result.matched == 12
            assert response.result.unmatched_dropped == 1

    run(go())


# -- failover --------------------------------------------------------------


def test_replica_serves_when_the_primary_dies():
    async def go():
        docs = make_docs(24)
        config = fast_cluster(replication=2, max_missed=1)
        async with LocalCluster(
            make_queries(), nodes=3, config=config,
            worker_config=batch_config(),
        ) as cluster:
            router = cluster.router
            await router.ingest(docs)
            primary, replica = router.ring.owners("golf", 2)
            await cluster.kill(primary)
            request = DigestRequest(lam=LAM, labels=("golf",))
            response = await router.digest(request)
            # first request discovers the crash and fails over inline
            assert response.status == "ok"
            assert response.shards == (replica,)
            assert canonical_fingerprint(response.result) == \
                await reference_fingerprint(docs, request)
            # the request-path failure fed the detector
            assert not router.membership.is_alive(primary)
            # subsequent requests skip the dead primary outright
            again = await router.digest(request)
            assert again.status == "ok"
            assert again.shards == (replica,)
            assert router.failovers > 0

    run(go())


def test_unreplicated_label_down_degrades_honestly():
    # with 8 labels over 3 nodes, every node owns a strict, non-empty
    # label subset
    queries, docs = wide_universe()
    labels = tuple(q.label for q in queries)

    async def go():
        config = fast_cluster(replication=1, max_missed=1)
        async with LocalCluster(
            queries, nodes=3, config=config,
            worker_config=batch_config(),
        ) as cluster:
            router = cluster.router
            await router.ingest(docs)
            ownership = router.ring.ownership(labels)
            victim, dark = next(
                (node, sorted(owned))
                for node, owned in sorted(ownership.items())
                if owned and len(owned) < len(labels)
            )
            survivors = tuple(
                label for label in labels if label not in dark
            )
            await cluster.kill(victim)
            await router.heartbeat_once()  # max_missed=1: flips down
            assert not router.membership.is_alive(victim)
            response = await router.digest(DigestRequest(lam=LAM))
            assert response.status == "degraded"
            assert response.missing_labels == tuple(dark)
            assert response.reason == \
                "partial cover: no live shard served " + ", ".join(dark)
            # the served remainder matches a reference over the same
            # label subset
            reference = DiversificationService(
                queries, batch_config()
            )
            reference.ingest(docs)
            local = await reference.digest(
                DigestRequest(lam=LAM, labels=survivors)
            )
            reference.close()
            assert canonical_fingerprint(response.result) == \
                canonical_fingerprint(local.result)
            assert router.degraded_responses == 1

    run(go())


def test_recovered_node_is_resynced_from_replicas():
    async def go():
        docs = make_docs(24)
        config = fast_cluster(replication=2, max_missed=1)
        async with LocalCluster(
            make_queries(), nodes=3, config=config,
            worker_config=batch_config(),
        ) as cluster:
            router = cluster.router
            await router.ingest(docs)
            victim = router.ring.owner("golf")
            before = len(cluster.worker(victim)._documents)
            assert before > 0
            await cluster.kill(victim)
            await router.heartbeat_once()
            assert not router.membership.is_alive(victim)
            # the revived node starts empty (no WAL): the heartbeat
            # recovery path must re-copy its labels from live replicas
            await cluster.revive(victim)
            await router.heartbeat_once()
            assert router.membership.is_alive(victim)
            assert len(cluster.worker(victim)._documents) == before
            request = DigestRequest(lam=LAM, labels=("golf",))
            response = await router.digest(request)
            assert response.status == "ok"
            assert canonical_fingerprint(response.result) == \
                await reference_fingerprint(docs, request)

    run(go())


# -- rebalance -------------------------------------------------------------


def test_join_rebalances_and_reads_stay_correct():
    async def go():
        docs = make_docs(24)
        async with LocalCluster(
            make_queries(), nodes=2, config=fast_cluster(),
            worker_config=batch_config(),
        ) as cluster:
            router = cluster.router
            await router.ingest(docs)
            await cluster.add_node("node2")
            assert "node2" in router.ring
            assert router.rebalances >= 1
            assert router.introspect()["joining"] == {}
            for label in ("golf", "nba", "tech"):
                request = DigestRequest(lam=LAM, labels=(label,))
                response = await router.digest(request)
                assert response.status == "ok"
                assert canonical_fingerprint(response.result) == \
                    await reference_fingerprint(docs, request)

    run(go())


def test_graceful_leave_hands_labels_over():
    async def go():
        docs = make_docs(24)
        async with LocalCluster(
            make_queries(), nodes=3, config=fast_cluster(),
            worker_config=batch_config(),
        ) as cluster:
            router = cluster.router
            await router.ingest(docs)
            leaver = router.ring.owner("golf")
            await cluster.remove_node(leaver)
            assert leaver not in router.ring
            assert router.membership.get(leaver) is None
            request = DigestRequest(lam=LAM)
            response = await router.digest(request)
            assert response.status == "ok"
            assert leaver not in response.shards
            assert canonical_fingerprint(response.result) == \
                await reference_fingerprint(docs, request)

    run(go())


def test_cannot_remove_the_last_node():
    async def go():
        async with LocalCluster(
            make_queries(), nodes=1, config=fast_cluster(),
            worker_config=batch_config(),
        ) as cluster:
            with pytest.raises(ClusterError):
                await cluster.remove_node("node0")

    run(go())


# -- per-view windows across the cluster -----------------------------------


def test_set_view_window_reaches_every_owner():
    async def go():
        async with LocalCluster(
            make_queries(), nodes=3,
            config=fast_cluster(replication=2),
        ) as cluster:  # default worker config: views on
            router = cluster.router
            ack = await router.set_view_window(["golf"], 500.0)
            assert ack["window"] == 500.0
            owners = set(router.ring.owners("golf", 2))
            assert set(ack["nodes"]) == owners
            for name in owners:
                views = cluster.worker(name).service._views
                assert views.window_for(("golf",)) == 500.0
            cleared = await router.set_view_window(["golf"], None)
            assert cleared["window"] is None
            for name in owners:
                views = cluster.worker(name).service._views
                assert views.window_for(("golf",)) is None
            with pytest.raises(ClusterError):
                await router.set_view_window(["curling"], 10.0)

    run(go())


# -- health / introspection ------------------------------------------------


def test_router_health_and_introspect_describe_the_cluster():
    queries, docs = wide_universe()

    async def go():
        async with LocalCluster(
            queries, nodes=3, config=fast_cluster(),
            worker_config=batch_config(),
        ) as cluster:
            router = cluster.router
            await router.ingest(docs[:12])
            await router.heartbeat_once()
            response = await router.digest(DigestRequest(lam=LAM))
            assert len(response.shards) > 1
            health = router.health()
            assert health["cluster"]["role"] == "router"
            assert sorted(health["cluster"]["nodes"]) == cluster.names
            assert health["cluster"]["alive"] == cluster.names
            assert health["cluster"]["inflight_scatters"] == 0
            assert sum(health["cluster"]["ring"].values()) == len(queries)
            assert health["requests"] == 1
            assert health["documents"] == 12

            info = router.introspect()
            assert info["role"] == "router"
            assert info["ring"]["virtual_nodes"] == 32
            # no rebalance warm list
            assert "hot_keys" not in info
            assert info["counters"]["requests"] == 1
            assert info["counters"]["scatter_legs"] == len(response.shards)
            assert set(info["clients"]) == set(cluster.names)
            assert all(
                entry["calls"] > 0
                for entry in info["clients"].values()
            )
            assert set(info["node_epochs"]) == set(cluster.names)

            # workers answer for the cluster through the same surface
            name = cluster.names[0]
            node_health = await router.node_health(name)
            assert node_health["cluster"]["role"] == "worker"
            assert node_health["cluster"]["node"] == name
            node_info = await router.node_introspect(name)
            assert node_info["cluster"]["heartbeats_seen"] == 1

    run(go())


# -- corrupt scatter legs --------------------------------------------------


def corrupt_leg_payloads(worker, corrupt) -> None:
    """Make ``worker`` pass every rows answer it sends for a scatter leg
    through ``corrupt`` (the answer is encoded afresh each time, so the
    worker's rows memo keeps the true rows)."""
    serve = worker._op_rows

    def op_rows(payload):
        out = serve(payload)
        if "instance" in out:
            corrupt(out)
        return out

    worker._op_rows = op_rows


def corrupt_forward_payloads(worker, corrupt) -> None:
    """Make ``worker`` pass every digest result payload it sends for a
    forward through ``corrupt`` (the payload is encoded afresh for each
    answer, so the worker's cache keeps the true result)."""
    serve = worker._op_digest

    async def op_digest(payload):
        out = await serve(payload)
        result = out["response"]["result"]
        if result is not None:
            corrupt(result)
        return out

    worker._op_digest = op_digest


def drop_a_column(result):
    del result["instance"]["masks"]


def mask_out_of_range(result):
    instance = result["instance"]
    instance["masks"][0] = 1 << len(instance["labels"])


def cover_uid_outside_the_instance(result):
    result["solution"]["uids"].append(max(result["instance"]["uids"]) + 1)


def extra_label(result):
    result["instance"]["labels"].append("zz")  # sorts last: masks hold


def other_lambda(result):
    result["instance"]["lam"] *= 2


def lam_as_a_string(result):
    # float() would read it as the right lambda
    result["instance"]["lam"] = repr(result["instance"]["lam"])


def day_cluster():
    return LocalCluster(
        day_queries(), nodes=3, config=fast_cluster(),
        worker_config=batch_config(),
    )


def partial_owner(router):
    """A node owning some but not all labels, and the labels it owns."""
    return next(
        (node, owned)
        for node, owned in sorted(router.ring.ownership(
            router.labels).items())
        if owned and len(owned) < len(router.labels)
    )


@pytest.mark.parametrize("corrupt, error", [
    (drop_a_column, "InvalidInstanceError"),
    (mask_out_of_range, "InvalidInstanceError"),
    (extra_label, "ClusterError"),
    (other_lambda, "ClusterError"),
    (lam_as_a_string, "InvalidInstanceError"),
], ids=lambda param: getattr(param, "__name__", ""))
def test_a_corrupt_leg_fails_alone(corrupt, error):
    async def go():
        async with day_cluster() as cluster:
            router = cluster.router
            await router.ingest(day_documents())
            victim, dark = partial_owner(router)
            corrupt_leg_payloads(cluster.worker(victim), corrupt)
            with structlog.capture() as events:
                response = await router.digest(DigestRequest(lam=LAM_S))
            return response, router.labels, dark, events, router.errors

    response, labels, dark, events, errors = run(go())
    assert response.status == "degraded"
    assert response.missing_labels == tuple(dark)
    assert errors == 0
    failed = [e for e in events if e["event"] == "cluster.leg_failed"]
    assert [sorted(e["labels"]) for e in failed] == [dark]
    # the router's own decode or leg check failed the leg, not the worker
    assert failed[0]["reason"].startswith(error + "(")
    # the reason names the missing labels, the leg's node and its cause
    assert response.reason.startswith(
        "partial cover: no live shard served " + ", ".join(dark)
    )
    assert f"{failed[0]['node']} ({', '.join(dark)}): " + \
        failed[0]["reason"] in response.reason
    # the legs that decoded are re-solved: one process's answer over
    # the labels that remain, and a valid cover of them
    assert response.resolves == 1
    assert canonical_fingerprint(response.result) == run(
        reference_fingerprint(
            day_documents(),
            DigestRequest(lam=LAM_S, labels=tuple(
                label for label in labels if label not in dark
            )),
            day_queries(),
        )
    )
    verify_cover(response.result.instance, response.result.solution.posts)
    assert not response.result.instance.labels & set(dark)


@pytest.mark.parametrize("algorithm", ["scan", "scan+", "greedy_sc"])
def test_a_degraded_merge_is_one_process_over_the_labels_that_remain(
    algorithm,
):
    # the surviving legs' covers together are a cover, but with seam
    # posts among them not the one-process answer: the router re-solves
    # them like every other merge of two or more legs
    async def go():
        async with day_cluster() as cluster:
            router = cluster.router
            await router.ingest(day_documents())
            victim, dark = partial_owner(router)
            await cluster.kill(victim)
            response = await router.digest(
                DigestRequest(lam=LAM_S, algorithm=algorithm)
            )
            return response, router.labels, victim, dark

    response, labels, victim, dark = run(go())
    assert response.status == "degraded"
    assert response.missing_labels == tuple(dark)
    # the labels are named, and the leg that found the node dead names
    # it and its cause
    assert response.reason.startswith(
        "partial cover: no live shard served " + ", ".join(dark)
        + f" ({victim} ({', '.join(dark)}): NodeUnavailableError("
    )
    assert len(response.shards) > 1
    assert response.resolves == 1
    survivors = tuple(label for label in labels if label not in dark)
    assert canonical_fingerprint(response.result) == run(
        reference_fingerprint(
            day_documents(),
            DigestRequest(lam=LAM_S, labels=survivors, algorithm=algorithm),
            day_queries(),
        )
    )


def test_a_corrupt_forward_fails_with_its_cause():
    # a forward ships its worker's cover: a cover uid its instance does
    # not hold fails the decode, and with it the only leg
    async def go():
        async with day_cluster() as cluster:
            router = cluster.router
            await router.ingest(day_documents())
            owner = router.ring.owner("q0")
            corrupt_forward_payloads(
                cluster.worker(owner), cover_uid_outside_the_instance
            )
            with structlog.capture() as events:
                response = await router.digest(
                    DigestRequest(lam=LAM_S, labels=("q0",))
                )
            return response, owner, events, router.errors

    response, owner, events, errors = run(go())
    assert response.status == "error"
    assert response.result is None
    assert response.missing_labels == ("q0",)
    assert errors == 1
    failed = [e for e in events if e["event"] == "cluster.leg_failed"]
    assert [e["labels"] for e in failed] == [["q0"]]
    assert failed[0]["node"] == owner
    assert failed[0]["reason"].startswith("ReproError(")
    assert "is not in the instance" in failed[0]["reason"]
    assert response.reason == (
        f"every scatter leg failed: {owner} (q0): {failed[0]['reason']}"
    )


def test_every_leg_corrupt_is_an_error_response():
    async def go():
        async with day_cluster() as cluster:
            router = cluster.router
            await router.ingest(day_documents())
            for name in cluster.names:
                corrupt_leg_payloads(cluster.worker(name), drop_a_column)
            with structlog.capture() as events:
                response = await router.digest(DigestRequest(lam=LAM_S))
            return response, router.labels, events, router.errors

    response, labels, events, errors = run(go())
    assert response.status == "error"
    assert response.result is None
    assert response.missing_labels == labels
    assert errors == 1
    failed = [e for e in events if e["event"] == "cluster.leg_failed"]
    assert len(failed) > 1
    assert all(
        e["reason"].startswith("InvalidInstanceError(") for e in failed
    )
    # the reason names every leg's node and cause
    assert response.reason.startswith("every scatter leg failed: ")
    for event in failed:
        assert f"{event['node']} ({', '.join(event['labels'])}): " + \
            event["reason"] in response.reason


def test_one_surviving_leg_of_a_scatter_is_solved_by_the_router():
    # two of three legs fail after the scatter: the survivor's rows are
    # merged and solved like any other scatter, not forwarded
    async def go():
        async with day_cluster() as cluster:
            router = cluster.router
            await router.ingest(day_documents())
            request = DigestRequest(lam=LAM_S, algorithm="greedy_sc")
            await router.digest(request)
            merges = record_merges(router)
            names = cluster.names
            for name in names[1:]:
                corrupt_leg_payloads(cluster.worker(name), drop_a_column)
            response = await router.digest(request)
            return response, merges, router.labels, names[0]

    response, merges, labels, survivor = run(go())
    ((legs, _),) = merges
    assert [leg["node"] for leg in legs] == [survivor]
    assert response.status == "degraded"
    assert response.shards == (survivor,)
    assert response.resolves == 1 and response.algorithm == "greedy_sc"
    served = tuple(sorted(legs[0]["labels"]))
    assert response.missing_labels == tuple(
        label for label in labels if label not in served
    )
    assert canonical_fingerprint(response.result) == run(
        reference_fingerprint(
            day_documents(),
            DigestRequest(lam=LAM_S, labels=served, algorithm="greedy_sc"),
            day_queries(),
        )
    )


def record_merges(router):
    """Wrap ``router._merge``; the list collects ``(legs, response)``."""
    merges = []
    merge = router._merge

    def recording(request, ctx, started, legs, **kwargs):
        response = merge(request, ctx, started, legs, **kwargs)
        merges.append((legs, response))
        return response

    router._merge = recording
    return merges


def leg_label_sets(legs):
    """uid -> the label sets its legs carried."""
    seen = {}
    for leg in legs:
        for post in leg["columns"].instance.posts:
            seen.setdefault(post.uid, []).append(post.labels)
    return seen


def test_seam_posts_carry_the_union_of_their_legs_labels():
    async def go():
        async with day_cluster() as cluster:
            await cluster.router.ingest(day_documents())
            merges = record_merges(cluster.router)
            for request in PARITY_REQUESTS:
                await cluster.router.digest(request)
            return merges

    seams = 0
    for legs, response in run(go()):
        assert response.status == "ok"
        instance = response.result.instance
        for uid, label_sets in leg_label_sets(legs).items():
            if len(label_sets) > 1:
                seams += 1
                assert instance.post(uid).labels == \
                    frozenset().union(*label_sets)
        # one label-set object per distinct combination
        label_sets = [post.labels for post in instance.posts]
        assert len({id(labels) for labels in label_sets}) == \
            len(set(label_sets))
    assert seams > 0


def test_legs_disagreeing_on_a_seam_value_is_an_error():
    async def go():
        async with day_cluster() as cluster:
            router = cluster.router
            await router.ingest(day_documents())
            merges = record_merges(router)
            request = DigestRequest(lam=LAM_S)
            await router.digest(request)
            (legs, _), = merges
            seam_uids = {
                uid for uid, label_sets in leg_label_sets(legs).items()
                if len(label_sets) > 1
            }
            nudged = []

            def nudge_a_seam_value(result):
                # move one seam post's value up by one ulp, keeping the
                # leg's rows sorted so that the leg still decodes
                uids = result["instance"]["uids"]
                values = unpack(result["instance"]["values"])
                for row, uid in enumerate(uids):
                    moved = math.nextafter(values[row], math.inf)
                    if uid in seam_uids and (
                        row + 1 == len(uids) or values[row + 1] > moved
                    ):
                        values[row] = moved
                        result["instance"]["values"] = pack(values)
                        nudged.append(uid)
                        return

            corrupt_leg_payloads(
                cluster.worker(legs[0]["node"]), nudge_a_seam_value
            )
            response = await router.digest(request)
            return response, nudged, router.errors

    response, nudged, errors = run(go())
    assert len(nudged) == 1
    assert response.status == "error"
    assert response.result is None
    assert f"post {nudged[0]}" in response.reason
    assert errors == 1


# -- what the router builds ------------------------------------------------


def count_instance_builds(patch):
    """Count every ``Instance`` built from here on (each constructor
    ends in ``Instance._build``); returns the one-item count list."""
    builds = [0]
    build = Instance._build

    def counting(self, *args, **kwargs):
        builds[0] += 1
        return build(self, *args, **kwargs)

    patch.setattr(Instance, "_build", counting)
    return builds


def record_leg_payloads(worker, corrupt=corrupt_leg_payloads):
    """Keep a JSON copy of every rows answer ``worker`` sends (every
    digest result payload, with ``corrupt=corrupt_forward_payloads``)."""
    sent = []
    corrupt(
        worker, lambda result: sent.append(json.loads(json.dumps(result)))
    )
    return sent


def test_a_forward_builds_no_instance_until_one_is_read():
    async def go(patch):
        async with day_cluster() as cluster:
            router = cluster.router
            await router.ingest(day_documents())
            request = DigestRequest(lam=LAM_S, labels=("q0",))
            # the owner's cache answers the second digest, so any build
            # below is the router's
            await router.digest(request)
            owner = router._live_owners("q0")[0]
            sent = record_leg_payloads(
                cluster.worker(owner), corrupt_forward_payloads
            )
            builds = count_instance_builds(patch)
            response = await router.digest(request)
            return response, sent, builds

    with pytest.MonkeyPatch.context() as patch:
        response, (payload,), builds = run(go(patch))
        assert response.status == "ok"
        assert response.shards and len(response.shards) == 1
        result = response.result
        assert builds[0] == 0
        repr(result)
        repr(result.source)
        assert result == result
        replaced = _dc_replace(result, trace_id="elsewhere")
        assert replaced.source is result.source
        assert builds[0] == 0
        instance = result.instance
        assert builds[0] == 1
        assert replaced.instance is instance
        assert builds[0] == 1
    reference = Instance.from_dict(payload["instance"])
    assert instance.posts == reference.posts
    assert [post.text for post in instance.posts] == \
        [post.text for post in reference.posts]
    assert (instance.labels, instance.lam) == \
        (reference.labels, reference.lam)
    for post in result.solution.posts:
        assert post is instance.post(post.uid)


def test_a_greedy_sc_scatter_merge_builds_no_instance():
    # GreedySC, the default algorithm, solves the merged columns as Scan
    # and Scan+ do, building only its picks
    async def go(patch):
        async with day_cluster() as cluster:
            router = cluster.router
            await router.ingest(day_documents())
            request = DigestRequest(lam=LAM_S)
            await router.digest(request)
            merges = record_merges(router)
            builds = count_instance_builds(patch)
            response = await router.digest(request)
            return response, merges, builds[0]

    with pytest.MonkeyPatch.context() as patch:
        response, merges, builds = run(go(patch))
    assert response.status == "ok"
    assert response.algorithm == "greedy_sc"
    assert response.seam_posts > 0
    assert builds == 0
    ((legs, _),) = merges
    assert len(legs) > 1
    assert all(leg["columns"]._instance is None for leg in legs)


def count_post_builds(patch):
    """Count every ``Post`` built from here on; returns the one-item
    count list."""
    builds = [0]
    init = Post.__init__

    def counting(self, *args, **kwargs):
        builds[0] += 1
        init(self, *args, **kwargs)

    patch.setattr(Post, "__init__", counting)
    return builds


def merged_the_old_way(payloads, lam, labels):
    """The merged instance as a merge of whole leg instances builds it:
    one post per uid, a seam post carrying the union of its legs' label
    sets."""
    posts = {}
    for payload in payloads:
        for post in Instance.from_dict(payload["instance"]).posts:
            known = posts.get(post.uid)
            posts[post.uid] = post if known is None else Post(
                post.uid, post.value, known.labels | post.labels, post.text
            )
    return Instance(posts.values(), lam, labels=labels)


def test_a_scan_plus_scatter_merge_builds_only_its_cover():
    async def go(patch):
        async with day_cluster() as cluster:
            router = cluster.router
            await router.ingest(day_documents())
            request = DigestRequest(lam=LAM_S, algorithm="scan+")
            # the owners' rows memos answer the second digest
            await router.digest(request)
            sent = [record_leg_payloads(cluster.worker(name))
                    for name in cluster.names]
            instances = count_instance_builds(patch)
            posts = count_post_builds(patch)
            merge = router._merge
            merge_builds = []

            def counting_merge(*args, **kwargs):
                before = posts[0]
                response = merge(*args, **kwargs)
                merge_builds.append(posts[0] - before)
                return response

            router._merge = counting_merge
            response = await router.digest(request)
            return response, sent, instances[0], merge_builds

    with pytest.MonkeyPatch.context() as patch:
        response, sent, instance_builds, (merge_builds,) = run(go(patch))
    assert response.status == "ok"
    assert len(response.shards) > 1
    assert response.seam_posts > 0 and response.resolves == 1
    result = response.result
    # the re-solve ran on the merged columns: no instance anywhere, and
    # one post per cover post
    assert instance_builds == 0
    assert result.source._instance is None
    assert merge_builds == len(result.solution.posts)
    instance = result.instance
    payloads = [payload for worker in sent for payload in worker]
    assert len(payloads) == len(response.shards)
    reference = merged_the_old_way(
        payloads, LAM_S, [query.label for query in day_queries()]
    )
    assert instance.posts == reference.posts
    assert [post.text for post in instance.posts] == \
        [post.text for post in reference.posts]
    assert (instance.labels, instance.lam) == \
        (reference.labels, reference.lam)
    assert result.matched == len(reference.posts)
    for post in result.solution.posts:
        assert post is instance.post(post.uid)
    verify_cover(instance, result.solution.posts)


# -- what a scatter leg is -------------------------------------------------


@pytest.mark.parametrize("position", ["first", "last"])
def test_a_worker_under_pressure_does_not_shape_a_scatter(position):
    # a rows leg takes no admission: a worker stepping its digests down
    # the ladder changes neither the scatter's algorithm nor its status
    request = DigestRequest(lam=LAM_S, algorithm="greedy_sc")

    async def go():
        async with day_cluster() as cluster:
            router = cluster.router
            await router.ingest(day_documents())
            label = router.labels[0 if position == "first" else -1]
            pressed = router.ring.owner(label)
            cluster.worker(pressed).service.admission.admit = \
                lambda pending: AdmissionDecision(
                    DEGRADE, degrade_steps=1, reason="forced"
                )
            merges = record_merges(router)
            response = await router.digest(request)
            # a forward to that worker is still its worker's digest
            forwarded = await router.digest(
                DigestRequest(lam=LAM_S, labels=(label,),
                              algorithm="greedy_sc")
            )
            return response, forwarded, merges, pressed

    response, forwarded, merges, pressed = run(go())
    legs = merges[0][0]  # the scatter's
    position_of = [leg["node"] for leg in legs].index(pressed)
    assert position_of == (0 if position == "first" else len(legs) - 1)
    assert response.status == "ok"
    assert response.reason == ""
    assert response.algorithm == "greedy_sc"
    assert response.result.solution.algorithm == "greedy_sc"
    assert canonical_fingerprint(response.result) == run(
        reference_fingerprint(day_documents(), request, day_queries())
    )
    assert (forwarded.status, forwarded.algorithm, forwarded.reason) == \
        ("degraded", "scan+", "forced")


def test_a_window_pinned_on_a_scattered_label_set_clips_every_leg():
    labels = tuple(query.label for query in day_queries())
    request = DigestRequest(lam=LAM_S, algorithm="scan+")

    async def go():
        # views on, on both sides: windows need them
        reference = DiversificationService(
            day_queries(), default_worker_config()
        )
        reference.ingest(day_documents())
        reference.set_view_window(labels, 3600.0)
        local = await reference.digest(request)
        async with LocalCluster(
            day_queries(), nodes=3, config=fast_cluster(),
        ) as cluster:
            await cluster.router.ingest(day_documents())
            await cluster.router.set_view_window(labels, 3600.0)
            routed = await cluster.router.digest(request)
        return local, routed

    local, routed = run(go())
    assert routed.status == "ok"
    assert len(routed.shards) > 1
    # covers, not fingerprints: the router counts unmatched_dropped
    # over the whole day
    assert [post.uid for post in routed.result.posts] == \
        [post.uid for post in local.result.posts]
    assert routed.result.matched == local.result.matched
    assert (len(local.result.posts), local.result.matched) == (22, 77)


async def pinned_reference(labels, request):
    """One process's digest with a 3,600 s window pinned on ``labels``."""
    reference = DiversificationService(
        day_queries(), default_worker_config()
    )
    reference.ingest(day_documents())
    reference.set_view_window(labels, 3600.0)
    return await reference.digest(request)


def assert_serves_the_pinned_window(routed, local, node, labels):
    # covers, not fingerprints: the router counts unmatched_dropped
    # over the whole day
    assert routed.status == "ok"
    assert [post.uid for post in routed.result.posts] == \
        [post.uid for post in local.result.posts]
    assert routed.result.matched == local.result.matched
    assert node.service._views.windows() == {labels: 3600.0}


def test_a_joining_node_takes_the_pinned_windows_of_its_labels():
    labels = tuple(query.label for query in day_queries())
    request = DigestRequest(lam=LAM_S, algorithm="scan+")

    async def go():
        local = await pinned_reference(labels, request)
        async with LocalCluster(
            day_queries(), nodes=2, config=fast_cluster(),
        ) as cluster:
            await cluster.router.ingest(day_documents())
            await cluster.router.set_view_window(labels, 3600.0)
            await cluster.add_node("node2")
            routed = await cluster.router.digest(request)
            return local, routed, cluster.worker("node2")

    local, routed, joined = run(go())
    # without the replay the new owner's legs read the whole day: 69
    # posts over 248 matched
    assert "node2" in routed.shards
    assert (len(routed.result.posts), routed.result.matched) == (22, 77)
    assert_serves_the_pinned_window(routed, local, joined, labels)


def test_a_revived_node_takes_the_pinned_windows_of_its_labels():
    labels = tuple(query.label for query in day_queries())
    request = DigestRequest(lam=LAM_S, algorithm="scan+")

    async def go():
        local = await pinned_reference(labels, request)
        async with LocalCluster(
            day_queries(), nodes=3,
            config=fast_cluster(replication=2, max_missed=1),
        ) as cluster:
            router = cluster.router
            await router.ingest(day_documents())
            await router.set_view_window(labels, 3600.0)
            victim = router.ring.owner(labels[0])
            await cluster.kill(victim)
            await router.heartbeat_once()
            assert not router.membership.is_alive(victim)
            # the revived node starts empty: the resync copies its
            # documents and must send it the pin too
            await cluster.revive(victim)
            await router.heartbeat_once()
            routed = await router.digest(request)
            return local, routed, victim, cluster.worker(victim)

    local, routed, victim, revived = run(go())
    assert victim in routed.shards
    assert_serves_the_pinned_window(routed, local, revived, labels)


def test_a_pin_survives_an_owner_that_could_not_take_it():
    labels = tuple(query.label for query in day_queries())
    request = DigestRequest(lam=LAM_S, algorithm="scan+")

    async def go():
        local = await pinned_reference(labels, request)
        async with LocalCluster(
            day_queries(), nodes=3,
            config=fast_cluster(replication=2, max_missed=1),
        ) as cluster:
            router = cluster.router
            await router.ingest(day_documents())
            # killed with no heartbeat since: the router still counts
            # it a holder, and its send fails last
            holders = sorted(router._window_holders(labels))
            victim = holders[-1]
            await cluster.kill(victim)
            with pytest.raises(NodeUnavailableError, match=victim):
                await router.set_view_window(labels, 3600.0)
            assert router._pins == {labels: 3600.0}
            for name in holders[:-1]:
                views = cluster.worker(name).service._views
                assert views.windows() == {labels: 3600.0}
            await router.heartbeat_once()
            assert not router.membership.is_alive(victim)
            # the resync on revive sends the kept pin
            await cluster.revive(victim)
            await router.heartbeat_once()
            routed = await router.digest(request)
            return local, routed, victim, cluster.worker(victim)

    local, routed, victim, revived = run(go())
    assert victim in routed.shards
    assert_serves_the_pinned_window(routed, local, revived, labels)


def test_a_refused_pin_is_not_kept():
    async def go():
        async with LocalCluster(
            make_queries(), nodes=2, config=fast_cluster(),
            worker_config=batch_config(),
        ) as cluster:
            router = cluster.router
            # a views-off worker refuses any window
            with pytest.raises(WorkerFaultError):
                await router.set_view_window(["golf"], 100.0)
            with pytest.raises(ClusterError):
                await router.set_view_window(["golf"], float("nan"))
            assert router._pins == {}
            # so no replay sends it, and a join goes through
            await cluster.add_node("node2")
            assert "node2" in router.ring.nodes

    run(go())


def test_a_leaving_nodes_gainers_take_its_pinned_windows():
    async def go():
        async with LocalCluster(
            day_queries(), nodes=3, config=fast_cluster(),
        ) as cluster:
            router = cluster.router
            await router.ingest(day_documents())
            # a window pinned on the leaver's labels alone reaches the
            # leaver alone
            leaver, owned = partial_owner(router)
            labels = tuple(owned)
            request = DigestRequest(
                lam=LAM_S, algorithm="scan+", labels=labels
            )
            local = await pinned_reference(labels, request)
            ack = await router.set_view_window(labels, 3600.0)
            assert set(ack["nodes"]) == {leaver}
            await cluster.remove_node(leaver)
            routed = await router.digest(request)
            gainers = {
                name: cluster.worker(name) for name in routed.shards
            }
            return local, routed, labels, gainers

    local, routed, labels, gainers = run(go())
    assert gainers
    for gainer in gainers.values():
        assert_serves_the_pinned_window(routed, local, gainer, labels)


def gate_window_calls(router, gate, waiting):
    """Hold every window call the router makes to the nodes it has now
    until ``gate`` is set; ``waiting`` is set once one is held."""
    for client in router._clients.values():
        async def gated(op, payload, _call=client.call, **kwargs):
            if op == OP_SET_WINDOW:
                waiting.set()
                await gate.wait()
            return await _call(op, payload, **kwargs)
        client.call = gated


@pytest.mark.parametrize("join_first", [True, False],
                         ids=["join-then-pin", "pin-then-join"])
def test_a_window_pinned_during_a_join_reaches_the_joining_node(
    join_first,
):
    labels = tuple(query.label for query in day_queries())
    request = DigestRequest(lam=LAM_S, algorithm="scan+")

    async def go():
        local = await pinned_reference(labels, request)
        async with LocalCluster(
            day_queries(), nodes=2, config=fast_cluster(),
        ) as cluster:
            router = cluster.router
            await router.ingest(day_documents())
            # the join's handoff waits once it has copied the documents,
            # and the pin's calls to the old owners wait until the join
            # is done, so the join's replay reads the pins before the
            # pin is kept
            handed_off, release = asyncio.Event(), asyncio.Event()
            handoff = router._handoff

            async def slowed(*args, **kwargs):
                moved = await handoff(*args, **kwargs)
                handed_off.set()
                await release.wait()
                return moved

            router._handoff = slowed
            joined, held = asyncio.Event(), asyncio.Event()
            gate_window_calls(router, joined, held)
            def within(awaitable):
                return asyncio.wait_for(awaitable, timeout=5.0)

            if join_first:
                join = asyncio.ensure_future(cluster.add_node("node2"))
                await within(handed_off.wait())
            pin = asyncio.ensure_future(
                router.set_view_window(labels, 3600.0)
            )
            await within(held.wait())
            if not join_first:
                join = asyncio.ensure_future(cluster.add_node("node2"))
                await within(handed_off.wait())
            release.set()
            await within(join)
            joined.set()
            ack = await within(pin)
            routed = await router.digest(request)
            return local, routed, ack, cluster.worker("node2")

    local, routed, ack, joined = run(go())
    assert "node2" in ack["nodes"]
    assert "node2" in routed.shards
    assert_serves_the_pinned_window(routed, local, joined, labels)


def test_a_leg_window_counts_back_from_the_newest_document_routed():
    # the newest document matches no label, so it reaches no worker;
    # one process's window still counts back from it
    queries, docs = wide_universe()
    docs = docs + [Document(99, 1000.0, "nothing relevant here")]
    config = default_worker_config(view_window=900.0)
    request = DigestRequest(lam=LAM, algorithm="scan+")

    async def go():
        reference = DiversificationService(queries, config)
        reference.ingest(docs)
        local = await reference.digest(request)
        async with LocalCluster(
            queries, nodes=3, config=fast_cluster(), worker_config=config,
        ) as cluster:
            await cluster.router.ingest(docs)
            routed = await cluster.router.digest(request)
        return local, routed

    local, routed = run(go())
    assert routed.status == "ok"
    assert len(routed.shards) > 1
    assert [post.uid for post in routed.result.posts] == \
        [post.uid for post in local.result.posts]
    assert routed.result.matched == local.result.matched
    assert len(local.result.posts) == 22


def count_calls(patch, *targets):
    """Count the calls of each ``(owner, name)`` method from here on;
    returns ``{name: count}``."""
    calls = {}
    for owner, name in targets:
        original = getattr(owner, name)
        key = f"{owner.__name__}.{name}"
        calls[key] = 0

        def counting(*args, _original=original, _key=key, **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        patch.setattr(owner, name, counting)
    return calls


def test_a_cold_scatter_runs_one_solve_on_the_router_alone():
    request = DigestRequest(lam=LAM_S, algorithm="greedy_sc")

    async def go(patch):
        # views on: a leg's solve used to seed one
        async with LocalCluster(
            day_queries(), nodes=3, config=fast_cluster(),
        ) as cluster:
            router = cluster.router
            await router.ingest(day_documents())
            calls = count_calls(
                patch, (AdmissionController, "admit"),
                (ResultCache, "get"), (ResultCache, "put"),
                (ViewRegistry, "read"), (ViewRegistry, "seed"),
            )
            response = await router.digest(request)
            solves = [w.service.solves for w in cluster.workers.values()]
            return response, calls, solves, router.resolves

    with pytest.MonkeyPatch.context() as patch:
        response, calls, solves, resolves = run(go(patch))
    assert response.status == "ok"
    assert len(response.shards) == 3
    assert calls == dict.fromkeys(calls, 0)
    assert solves == [0, 0, 0]
    assert resolves == 1


def test_a_request_every_worker_refuses_says_why():
    # the router leaves a foreign dimension to the workers; their
    # refusal comes back in their own words, naming each leg's node
    queries, docs = wide_universe()
    request = DigestRequest(lam=LAM, dimension="sequence")

    async def go():
        async with LocalCluster(
            queries, nodes=3, config=fast_cluster(),
            worker_config=batch_config(),
        ) as cluster:
            router = cluster.router
            await router.ingest(docs)
            response = await router.digest(request)
            return response, router.labels, cluster.names, \
                router.introspect()["clients"]

    response, labels, names, clients = run(go())
    local = run(reference_service(docs, queries).digest(request))
    assert response.status == local.status == "error"
    assert response.result is None
    assert response.missing_labels == labels
    assert "this service projects values on the 'time' dimension only" \
        in response.reason
    assert response.reason.startswith("every scatter leg failed: ")
    for name in names:
        assert f"{name} (" in response.reason
    assert response.reason.count(local.reason) == len(names)
    # a refusal is an answer, not a node failure
    assert all(entry["failures"] == 0 for entry in clients.values())
