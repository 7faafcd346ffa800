"""Cluster observability: federation, trace pipeline, alerts, profiling.

The acceptance criteria from the issue live here:

* a 3-node cluster persists cross-node span trees to the TraceSink
  whose root is the router's request span: a forwarded request's
  leaves (following ``link_trace_id``) include the worker's
  ``service.solve`` spans, and a scattered request adopts one
  ``cluster.worker.rows`` span per leg;
* killing the only owner of a label raises a ``dark_shard`` alert
  within two collector cycles;
* ``health()`` / ``introspect()`` keep their earlier cluster blocks and
  gain ``fleet`` / ``alerts`` / ``traces`` blocks under kill, revive
  and rebalance.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cluster.harness import LocalCluster
from repro.cluster.protocol import (
    NodeUnavailableError,
    OP_DIGEST,
    OP_SCRAPE,
    WorkerFaultError,
)
from repro.cluster.router import ClusterConfig, ClusterRouter
from repro.cluster.worker import default_worker_config
from repro.observability import facade, structlog
from repro.observability.anomaly import AnomalyEngine
from repro.observability.exporters import parse_prometheus
from repro.observability.traces import (
    SamplingPolicy,
    TracePipeline,
    TraceSink,
)
from repro.observability.tracing import TraceContext
from repro.service import DigestRequest

from .conftest import make_docs, make_queries, run, wide_universe

LAM = 30.0


def batch_config():
    return default_worker_config(views=False)


def fast_cluster(**overrides) -> ClusterConfig:
    overrides.setdefault("hedge_delay", 0.05)
    overrides.setdefault("request_timeout", 5.0)
    return ClusterConfig(**overrides)


# -- the scrape op and metrics federation ----------------------------------


def test_scrape_op_returns_versioned_deltas():
    async def go():
        async with LocalCluster(
            make_queries(), nodes=2, config=fast_cluster(),
            worker_config=batch_config(),
        ) as cluster:
            router = cluster.router
            await router.ingest(make_docs())
            await router.digest(DigestRequest(lam=LAM))
            name = cluster.names[0]
            first = (await router._client(name).call(
                OP_SCRAPE, {"cursor": None}
            ))["payload"]
            assert first["reset"] is True
            assert first["node"] == name
            # scrape refreshes the point-in-time gauges before shipping
            assert first["metrics"]["service.corpus"]["type"] == "gauge"
            assert "slo" in first
            assert first["service"]["inflight"] == 0
            assert "epoch" in first["service"]
            assert "pending" in first["service"]
            second = (await router._client(name).call(
                OP_SCRAPE, {"cursor": first["version"]}
            ))["payload"]
            assert second["reset"] is False
            assert second["version"] == first["version"] + 1
            # nothing happened between the scrapes: no counter deltas
            assert not any(
                entry["type"] == "counter"
                for entry in second["metrics"].values()
            )

    run(go())


def test_collector_federates_counters_and_latency():
    async def go():
        async with LocalCluster(
            make_queries(), nodes=3, config=fast_cluster(),
            worker_config=batch_config(),
        ) as cluster:
            router = cluster.router
            collector = cluster.enable_collector(
                interval=1.0, engine=AnomalyEngine()
            )
            await router.ingest(make_docs())
            for label in ("golf", "nba", "tech"):
                await router.digest(
                    DigestRequest(lam=LAM, labels=(label,))
                )
            summary = await router.collect_once()
            assert sorted(summary["scraped"]) == cluster.names
            assert summary["failed"] == []
            # every worker digest lands in the fleet-summed counters
            counters = collector.store.fleet_counters()
            assert counters["service.requests"] >= 3
            quantiles = collector.store.fleet_quantiles(
                "service.latency_s"
            )
            assert quantiles["count"] >= 3
            assert quantiles["p99"] is not None
            # the federated page parses; per-node series carry the
            # node label and the fleet aggregates ride along
            samples = parse_prometheus(collector.to_prometheus())
            nodes_seen = {
                s["labels"]["node"] for s in samples
                if "node" in s["labels"]
            }
            assert nodes_seen == set(cluster.names)
            families = {s["name"] for s in samples}
            assert "fleet_service_requests_total" in families
            assert "fleet_slo_latency_seconds" in families
            assert "repro_alerts_active" in families

    run(go())


# -- health / introspect shapes under churn --------------------------------


def test_health_and_introspect_shapes_under_kill_revive_rebalance():
    async def go():
        config = fast_cluster(replication=2, max_missed=1)
        async with LocalCluster(
            make_queries(), nodes=3, config=config,
            worker_config=batch_config(),
        ) as cluster:
            router = cluster.router
            router.enable_collector(engine=AnomalyEngine())
            await router.ingest(make_docs(24))
            await router.digest(DigestRequest(lam=LAM))
            await router.collect_once()

            def check_shapes():
                health = router.health()
                # the pre-existing cluster block, unchanged
                block = health["cluster"]
                for key in ("role", "nodes", "alive", "replication",
                            "ring", "inflight_scatters",
                            "node_epochs"):
                    assert key in block
                assert block["role"] == "router"
                # the new fleet block
                fleet = health["fleet"]
                assert fleet is not None
                for key in ("cycles", "interval_s", "scrape_failures",
                            "nodes", "counters", "latency", "slo",
                            "alerts_active"):
                    assert key in fleet
                intro = router.introspect()
                for key in ("role", "labels", "ring", "membership",
                            "queues", "counters", "clients",
                            "fleet", "alerts", "traces"):
                    assert key in intro
                assert set(intro["alerts"]) == {
                    "active", "raised_total", "cleared_total",
                    "evaluations", "rules",
                }

            check_shapes()
            victim = router.ring.owner("golf")
            await cluster.kill(victim)
            # the failed scrape feeds the failure detector directly
            await router.collect_once()
            await router.heartbeat_once()
            check_shapes()
            health = router.health()
            assert victim not in health["cluster"]["alive"]
            assert health["fleet"]["nodes"][victim][
                "consecutive_failures"] >= 1

            await cluster.revive(victim)
            await router.heartbeat_once()
            await router.collect_once()
            check_shapes()
            health = router.health()
            assert victim in health["cluster"]["alive"]
            assert health["fleet"]["nodes"][victim][
                "consecutive_failures"] == 0

            await cluster.add_node("node3")
            await router.collect_once()
            check_shapes()
            health = router.health()
            assert "node3" in health["cluster"]["nodes"]
            assert "node3" in health["fleet"]["nodes"]

    run(go())


# -- the durable cross-node trace (acceptance criterion) -------------------


def test_cross_node_span_tree_persists_to_the_sink(tmp_path):
    queries, docs = wide_universe()

    async def go():
        pipeline = TracePipeline(
            policy=SamplingPolicy(rate=1.0),
            sink=TraceSink(str(tmp_path / "traces.jsonl")),
        )
        async with LocalCluster(
            queries, nodes=3, config=fast_cluster(),
            worker_config=batch_config(),
        ) as cluster:
            router = cluster.router
            router.attach_trace_pipeline(pipeline)
            await router.ingest(docs)
            with facade.session():
                forwarded = await router.digest(
                    DigestRequest(lam=LAM, labels=("t0",))
                )
                scattered = await router.digest(DigestRequest(lam=LAM))
            assert forwarded.status == scattered.status == "ok"
            assert len(forwarded.shards) == 1
            assert len(scattered.shards) >= 2  # genuinely cross-node
            records = {
                record["trace_id"]: record
                for record in pipeline.sink.read_records()
            }

            def tree_of(response):
                record = records[response.trace_id]
                assert record["reason"] == "sampled"
                tree = record["tree"]
                assert tree is not None
                roots = tree["roots"]
                assert [r["name"] for r in roots] == ["cluster.request"]
                return roots

            def collect(nodes, names, linked_names):
                for node in nodes:
                    names.append(node["name"])
                    linked = node.get("linked")
                    if linked:
                        collect(linked["roots"], linked_names,
                                linked_names)
                    collect(node["children"], names, linked_names)

            names: list = []
            linked_names: list = []
            collect(tree_of(forwarded), names, linked_names)
            # the router's trace reaches the adopted worker span...
            assert names.count("cluster.worker.digest") == 1
            # ...and following link_trace_id reaches the worker's
            # service-side spans: the cross-node leaves
            assert "service.request" in linked_names
            assert "service.solve" in linked_names

            names, linked_names = [], []
            collect(tree_of(scattered), names, linked_names)
            # a scattered request adopts one rows span per leg; its
            # legs run no service digest to link to
            assert names.count("cluster.worker.rows") == \
                len(scattered.shards)
            assert "cluster.worker.digest" not in names
            assert linked_names == []

    run(go())


def test_unsampled_requests_skip_spans_but_errors_leave_skeletons():
    async def go():
        pipeline = TracePipeline(policy=SamplingPolicy(rate=0.0))
        async with LocalCluster(
            make_queries(), nodes=2, config=fast_cluster(),
            worker_config=default_worker_config(
                views=False, trace_sample=0.0
            ),
        ) as cluster:
            router = cluster.router
            router.attach_trace_pipeline(pipeline)
            await router.ingest(make_docs())
            with facade.session() as bundle:
                response = await router.digest(DigestRequest(lam=LAM))
                assert response.status == "ok"
                # rate=0 on the router and 0.0 on the workers: no span
                # anywhere, not the legs' solves nor the merge's
                assert not bundle.tracer.finished
                counters = bundle.registry.counters()
                assert counters[
                    "cluster.router.trace_unsampled"] == 1
                # an error response still leaves a skeleton record
                bad = await router.digest(
                    DigestRequest(lam=LAM, labels=("nope",))
                )
                assert bad.status == "error"
            assert pipeline.skipped == 1
            assert pipeline.skeletons == 1
            records = pipeline.buffer.records()
            assert len(records) == 1
            assert records[0]["status"] == "error"
            assert records[0]["reason"] == "status"
            assert records[0]["tree"] is None
            snapshot = router.introspect()["traces"]
            assert snapshot["offered"] == 2
            assert snapshot["rate"] == 0.0

    run(go())


def sampled_digests(rate):
    """A full-set digest over :func:`wide_universe` (a scatter) and a
    one-label digest (a forward), the router at head-sampling ``rate``
    and the workers at their default ``trace_sample``: the two
    responses, every span recorded, the counters."""
    queries, docs = wide_universe()

    async def go():
        async with LocalCluster(
            queries, nodes=3, config=fast_cluster(),
            worker_config=batch_config(),
        ) as cluster:
            router = cluster.router
            router.attach_trace_pipeline(
                TracePipeline(policy=SamplingPolicy(rate=rate))
            )
            await router.ingest(docs)
            with facade.session() as bundle:
                scattered = await router.digest(DigestRequest(lam=LAM))
                forwarded = await router.digest(
                    DigestRequest(lam=LAM, labels=("t0",))
                )
                return (scattered, forwarded, list(bundle.tracer.finished),
                        bundle.registry.counters())

    return run(go())


def test_workers_follow_the_routers_unsampled_verdict():
    scattered, forwarded, spans, counters = sampled_digests(0.0)
    assert scattered.status == forwarded.status == "ok"
    assert len(scattered.shards) > 1 and len(forwarded.shards) == 1
    # the verdict rides with every leg: no span on the router, none on
    # a worker reading a leg's rows, and none on a worker serving a
    # forward under a trace id no router record names
    assert spans == []
    assert counters["cluster.router.trace_unsampled"] == 2
    # the forward's worker served it under the unsampled verdict; the
    # scatter's legs ran no service digest
    assert counters["service.trace_unsampled"] == 1


def test_sampled_worker_spans_link_to_the_response_trace():
    scattered, forwarded, spans, counters = sampled_digests(1.0)
    assert scattered.status == forwarded.status == "ok"
    assert len(scattered.shards) > 1 and len(forwarded.shards) == 1
    assert "service.trace_unsampled" not in counters
    # one rows span per leg, in the response's trace, linking nowhere
    legs = [span for span in spans if span.name == "cluster.worker.rows"]
    assert len(legs) == len(scattered.shards)
    assert {span.trace_id for span in legs} == {scattered.trace_id}
    assert not any("link_trace_id" in span.attributes for span in legs)
    assert {span.attributes["node"] for span in legs} == \
        set(scattered.shards)
    # the forward's worker span links to the trace its service served
    (leg,) = [span for span in spans
              if span.name == "cluster.worker.digest"]
    assert leg.trace_id == forwarded.trace_id
    # every worker-side span sits in the trace the forward links to
    served = [span for span in spans
              if span.trace_id not in (scattered.trace_id,
                                       forwarded.trace_id)]
    assert {span.name for span in served} >= {"service.request",
                                              "service.solve"}
    assert {span.trace_id for span in served} == \
        {leg.attributes["link_trace_id"]}


# -- the dark-shard alert (acceptance criterion) ---------------------------


def test_dark_shard_alert_within_two_collector_cycles():
    queries, docs = wide_universe()

    async def go():
        config = fast_cluster(replication=1, max_missed=1)
        async with LocalCluster(
            queries, nodes=3, config=config,
            worker_config=batch_config(),
        ) as cluster:
            router = cluster.router
            router.enable_collector(engine=AnomalyEngine())
            await router.ingest(docs)
            summary = await router.collect_once()
            assert summary["alerts"] == []
            labels = tuple(q.label for q in queries)
            ownership = router.ring.ownership(labels)
            victim = next(
                node for node, owned in sorted(ownership.items())
                if owned
            )
            await cluster.kill(victim)
            rules: set = set()
            for _ in range(2):
                summary = await router.collect_once()
                rules = {a["rule"] for a in summary["alerts"]}
                if "dark_shard" in rules:
                    break
            assert "dark_shard" in rules
            active = router.introspect()["alerts"]["active"]
            dark = [a for a in active if a["rule"] == "dark_shard"]
            assert dark and dark[0]["severity"] == "critical"
            # the alert names the dead node's labels
            assert dark[0]["subject"] == ",".join(
                sorted(ownership[victim])
            )
            # and the federated page carries the alert series
            page = router.federated_prometheus()
            assert 'repro_alerts{rule="dark_shard"' in page

    run(go())


# -- structured events on the failure paths --------------------------------


class _StubClient:
    """A scripted NodeClient stand-in for deterministic failover tests."""

    def __init__(self, behavior):
        self.behavior = behavior
        self.calls = 0
        self.failures = 0

    async def call(self, op, payload, *, trace=None,
                   want_spans=False, timeout=None):
        self.calls += 1
        return await self.behavior(op, payload)


def _stub_router(behaviors, **config_overrides):
    config_overrides.setdefault("hedge_delay", 0.01)
    router = ClusterRouter(
        make_queries(), ClusterConfig(**config_overrides)
    )
    for name, behavior in behaviors.items():
        router.membership.add(name, ("127.0.0.1", 0))
        router._clients[name] = _StubClient(behavior)
    return router


def test_hedged_retry_emits_a_structured_event():
    async def slow(op, payload):
        await asyncio.sleep(0.3)
        return {"payload": {"from": "slow"}}

    async def fast(op, payload):
        return {"payload": {"from": "fast"}}

    async def go():
        router = _stub_router({"slow": slow, "fast": fast})
        ctx = TraceContext.mint(tenant="t")
        with structlog.capture() as events:
            node, _, hedges = await router._call_with_failover(
                ("slow", "fast"), OP_DIGEST, {}, ctx,
            )
        assert node == "fast"
        assert hedges == 1
        hedged = [e for e in events
                  if e["event"] == "cluster.hedged_retry"]
        assert len(hedged) == 1
        assert hedged[0]["node"] == "fast"
        assert hedged[0]["trace_id"] == ctx.trace_id
        assert hedged[0]["op"] == OP_DIGEST
        assert hedged[0]["hedge_delay_s"] == pytest.approx(0.01)

    run(go())


def test_inline_failover_emits_a_structured_event():
    async def dead(op, payload):
        raise NodeUnavailableError("connection refused")

    async def alive(op, payload):
        return {"payload": {"from": "alive"}}

    async def go():
        router = _stub_router({"dead": dead, "alive": alive})
        ctx = TraceContext.mint(tenant="t")
        with structlog.capture() as events:
            node, _, _ = await router._call_with_failover(
                ("dead", "alive"), OP_DIGEST, {}, ctx,
            )
        assert node == "alive"
        failovers = [e for e in events
                     if e["event"] == "cluster.inline_failover"]
        assert len(failovers) == 1
        assert failovers[0]["node"] == "dead"
        assert failovers[0]["trace_id"] == ctx.trace_id
        assert "NodeUnavailableError" in failovers[0]["reason"]

    run(go())


def test_degraded_response_event_carries_the_dark_labels():
    queries, docs = wide_universe()

    async def go():
        config = fast_cluster(replication=1, max_missed=1)
        async with LocalCluster(
            queries, nodes=3, config=config,
            worker_config=batch_config(),
        ) as cluster:
            router = cluster.router
            await router.ingest(docs)
            labels = tuple(q.label for q in queries)
            ownership = router.ring.ownership(labels)
            victim = next(
                node for node, owned in sorted(ownership.items())
                if owned and len(owned) < len(labels)
            )
            dark = sorted(ownership[victim])
            await cluster.kill(victim)
            await router.heartbeat_once()
            with structlog.capture() as events:
                response = await router.digest(DigestRequest(lam=LAM))
            assert response.status == "degraded"
            degraded = [e for e in events
                        if e["event"] == "cluster.degraded_response"]
            assert len(degraded) == 1
            assert degraded[0]["trace_id"] == response.trace_id
            assert sorted(degraded[0]["missing_labels"]) == dark
            assert sorted(degraded[0]["dark_labels"]) == dark

    run(go())


# -- remote profiling ------------------------------------------------------


def test_profile_op_captures_a_live_node():
    async def go():
        async with LocalCluster(
            make_queries(), nodes=2, config=fast_cluster(),
            worker_config=batch_config(),
        ) as cluster:
            router = cluster.router
            name = cluster.names[0]
            payload = await router.profile_node(
                name, seconds=0.25, hz=100
            )
            assert payload["node"] == name
            assert payload["seconds"] == pytest.approx(0.25)
            assert payload["hz"] == 100
            assert payload["samples"] > 0
            doc = payload["speedscope"]
            assert doc["profiles"][0]["type"] == "sampled"
            assert isinstance(payload["collapsed"], str)

    run(go())


def test_profile_op_rejects_bad_requests():
    async def go():
        async with LocalCluster(
            make_queries(), nodes=1, config=fast_cluster(),
            worker_config=batch_config(),
        ) as cluster:
            with pytest.raises(WorkerFaultError):
                await cluster.router.profile_node(
                    cluster.names[0], seconds=0.0
                )

    run(go())
