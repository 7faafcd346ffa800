"""Worker node tests: the frame server wrapping one ordinary service."""

from __future__ import annotations

import asyncio

import pytest

from repro.cluster.frames import encode_frame
from repro.cluster.protocol import (
    ClusterError,
    NodeUnavailableError,
    OP_HEALTH,
    OP_HEARTBEAT,
    WorkerFaultError,
    canonical_fingerprint,
    document_to_dict,
)
from repro.cluster.router import NodeClient
from repro.cluster.worker import WorkerNode, default_worker_config
from repro.service import DigestRequest, DiversificationService, \
    ServiceConfig

from .conftest import make_docs, make_queries, run


async def started_worker(**kwargs):
    worker = WorkerNode("w0", make_queries(), **kwargs)
    host, port = await worker.start()
    assert port != 0  # requested 0, got a real ephemeral port back
    client = NodeClient("w0", (host, port))
    return worker, client


def test_dedup_config_is_rejected():
    with pytest.raises(ClusterError):
        WorkerNode(
            "w0", make_queries(), ServiceConfig(dedup_distance=3)
        )


def test_start_binds_ephemeral_port_and_stop_frees_it():
    async def go():
        worker = WorkerNode("w0", make_queries())
        host, port = await worker.start()
        assert worker.address == (host, port)
        assert worker.running
        with pytest.raises(ClusterError):
            await worker.start()  # double start refused
        await worker.stop()
        assert not worker.running

    run(go())


def test_ingest_then_digest_matches_local_service():
    async def go():
        worker, client = await started_worker()
        docs = make_docs(24)
        response = await client.call(
            "ingest",
            {"documents": [document_to_dict(d) for d in docs]},
        )
        payload = response["payload"]
        assert payload["accepted"] == 24
        assert payload["corpus"] == 24

        reference = DiversificationService(
            make_queries(), default_worker_config()
        )
        reference.ingest(docs)
        request = DigestRequest(lam=30.0, labels=("golf", "nba"))
        remote = await client.call(
            "digest", {"request": request.to_dict()}
        )
        local = await reference.digest(request)
        from repro.service import ServiceResponse

        remote_response = ServiceResponse.from_dict(
            remote["payload"]["response"]
        )
        assert canonical_fingerprint(remote_response.result) == \
            canonical_fingerprint(local.result)
        await client.close()
        await worker.stop()
        reference.close()

    run(go())


def test_ingest_is_idempotent_by_doc_id():
    async def go():
        worker, client = await started_worker()
        docs = [document_to_dict(d) for d in make_docs(6)]
        first = await client.call("ingest", {"documents": docs})
        again = await client.call("ingest", {"documents": docs})
        assert first["payload"]["accepted"] == 6
        assert again["payload"]["accepted"] == 0
        assert again["payload"]["skipped"] == 6
        assert again["payload"]["corpus"] == 6
        assert worker.ingest_skipped == 6
        await client.close()
        await worker.stop()

    run(go())


def test_export_filters_by_label():
    async def go():
        worker, client = await started_worker()
        docs = make_docs(9)  # cycles golf, nba, tech
        await client.call(
            "ingest",
            {"documents": [document_to_dict(d) for d in docs]},
        )
        response = await client.call("export", {"labels": ["golf"]})
        exported = response["payload"]["documents"]
        assert [d["doc_id"] for d in exported] == [0, 3, 6]
        both = await client.call(
            "export", {"labels": ["golf", "tech"]}
        )
        assert len(both["payload"]["documents"]) == 6
        await client.close()
        await worker.stop()

    run(go())


def test_heartbeat_piggybacks_cluster_picture_into_health():
    async def go():
        worker, client = await started_worker()
        membership = {"nodes": {"w0": {"status": "up"}}}
        ring = {"w0": ["golf", "nba"], "w1": ["tech"]}
        response = await client.call(
            OP_HEARTBEAT, {"membership": membership, "ring": ring}
        )
        assert response["payload"]["status"] == "alive"
        health = await client.call(OP_HEALTH, {})
        cluster = health["payload"]["cluster"]
        assert cluster["role"] == "worker"
        assert cluster["node"] == "w0"
        assert cluster["owned_labels"] == ["golf", "nba"]
        assert cluster["peers"] == membership
        assert worker.heartbeats_seen == 1
        await client.close()
        await worker.stop()

    run(go())


def test_set_window_op_reaches_the_service():
    async def go():
        worker, client = await started_worker()
        response = await client.call(
            "set_window", {"labels": ["golf"], "window": 50.0}
        )
        assert response["payload"]["labels"] == ["golf"]
        assert worker.service._views.window_for(("golf",)) == 50.0
        cleared = await client.call(
            "set_window", {"labels": ["golf"], "window": None}
        )
        assert cleared["payload"]["window"] is None
        assert worker.service._views.window_for(("golf",)) is None
        await client.close()
        await worker.stop()

    run(go())


def test_rows_op_answers_a_legs_rows_or_the_services_refusal():
    async def go():
        worker, client = await started_worker(
            config=default_worker_config(views=False)
        )
        docs = make_docs(24)
        await client.call(
            "ingest", {"documents": [document_to_dict(d) for d in docs]}
        )
        leg = {"labels": ["golf", "nba"], "lam": 30.0, "dimension": None,
               "window_labels": ["golf", "nba", "tech"], "newest": None}
        answer = (await client.call("rows", leg))["payload"]
        # a foreign dimension is refused as data, in the service's words
        refused = (await client.call(
            "rows", dict(leg, dimension="sequence")
        ))["payload"]
        served = worker.service.requests
        await client.close()
        await worker.stop()
        return docs, answer, refused, served

    docs, answer, refused, served = run(go())
    reference = DiversificationService(
        make_queries(), default_worker_config(views=False)
    )
    reference.ingest(docs)
    local = run(reference.digest(
        DigestRequest(lam=30.0, labels=("golf", "nba"))
    ))
    # the rows a batch solve over the leg's labels reads, in
    # Instance.to_dict form
    assert answer == {"instance": local.result.instance.to_dict()}
    assert refused == {"reason": "dimension 'sequence': this service "
                                 "projects values on the 'time' dimension "
                                 "only"}
    # no digest ran on the worker
    assert served == 0


def test_unknown_op_comes_back_as_a_worker_fault():
    async def go():
        worker, client = await started_worker()
        with pytest.raises(WorkerFaultError):
            await client.call("explode", {})
        # the connection survives remote faults: next call works
        health = await client.call(OP_HEALTH, {})
        assert health["payload"]["cluster"]["node"] == "w0"
        await client.close()
        await worker.stop()

    run(go())


def test_oversized_frame_drops_the_connection():
    async def go():
        worker, client = await started_worker(max_frame=512)
        client.max_frame = 512
        reader, writer = await asyncio.open_connection(
            *worker.address
        )
        writer.write((1 << 20).to_bytes(4, "big"))  # hostile header
        await writer.drain()
        # the worker rejects and hangs up instead of waiting forever
        assert await asyncio.wait_for(reader.read(), timeout=2.0) == b""
        assert worker.frames_rejected == 1
        writer.close()
        await worker.stop()
        await client.close()

    run(go())


def test_garbage_bytes_drop_the_connection_without_hanging():
    async def go():
        worker, _ = await started_worker()
        reader, writer = await asyncio.open_connection(*worker.address)
        # valid length prefix, body is not JSON
        writer.write(encode_frame({"rid": 1})[:4] + b"{" * 11)
        writer.write_eof()
        assert await asyncio.wait_for(reader.read(), timeout=2.0) == b""
        writer.close()
        await worker.stop()

    run(go())


def test_durable_worker_recovers_corpus_from_wal(tmp_path):
    async def go():
        wal = str(tmp_path / "w0")
        worker, client = await started_worker(wal_dir=wal)
        assert worker.durable
        docs = [document_to_dict(d) for d in make_docs(12)]
        response = await client.call("ingest", {"documents": docs})
        assert response["payload"]["durable"] is True
        assert response["payload"]["corpus"] == 12
        await client.close()
        await worker.stop()

        # a fresh worker over the same WAL directory replays the log:
        # corpus and idempotency gate are both rebuilt locally
        revived, client2 = await started_worker(wal_dir=wal)
        assert revived.service.corpus_size() == 12
        again = await client2.call("ingest", {"documents": docs[:3]})
        assert again["payload"]["accepted"] == 0
        assert again["payload"]["skipped"] == 3
        await client2.close()
        await revived.stop()

    run(go())


def test_reconnect_to_a_dead_server_fails_fast():
    async def go():
        worker, client = await started_worker()
        await client.call(OP_HEALTH, {})
        await worker.stop()
        await client.close()  # drop the live connection too
        with pytest.raises((NodeUnavailableError, ClusterError)):
            await client.call(OP_HEALTH, {})

    run(go())
