"""Wire-format tests: framing, truncation, oversize, and round-trips
of every ``to_dict``/``from_dict`` domain object through the codec."""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import worker as worker_module
from repro.cluster.frames import (
    MAX_FRAME,
    FrameDecoder,
    FrameError,
    FrameTooLargeError,
    TruncatedFrameError,
    encode_frame,
    read_frame,
)
from repro.cluster.harness import LocalCluster
from repro.cluster.protocol import (
    document_from_dict,
    document_to_dict,
    error_frame,
    ok_frame,
    request_frame,
)
from repro.cluster.router import ClusterResponse
from repro.cluster.worker import default_worker_config
from repro.core.instance import Instance
from repro.core.post import Post
from repro.core.registry import solve
from repro.index.inverted_index import Document
from repro.observability.tracing import Span, TraceContext
from repro.pipeline import DigestResult, DiversificationPipeline
from repro.service import DigestRequest, ServiceResponse

from .conftest import (
    LAM_S,
    NUM_LABELS,
    day_documents,
    day_queries,
    make_docs,
    make_queries,
    run,
)


def codec_round_trip(payload: dict) -> dict:
    """Encode one payload, decode it back through the incremental
    decoder — the exact path every cluster message takes."""
    decoder = FrameDecoder()
    frames = decoder.feed(encode_frame(payload))
    decoder.close()
    assert len(frames) == 1
    return frames[0]


# -- plain framing ---------------------------------------------------------


def test_round_trip_single_frame():
    payload = {"op": "digest", "rid": 7, "payload": {"lam": 1.5}}
    assert codec_round_trip(payload) == payload


def test_multiple_frames_in_one_feed():
    decoder = FrameDecoder()
    blob = b"".join(encode_frame({"rid": i}) for i in range(5))
    frames = decoder.feed(blob)
    assert [frame["rid"] for frame in frames] == [0, 1, 2, 3, 4]
    decoder.close()


def test_byte_at_a_time_decoding():
    payload = {"rid": 1, "payload": {"text": "x" * 300}}
    blob = encode_frame(payload)
    decoder = FrameDecoder()
    collected = []
    for i in range(len(blob)):
        collected.extend(decoder.feed(blob[i:i + 1]))
    assert collected == [payload]
    decoder.close()


def test_non_dict_payload_rejected_on_encode():
    with pytest.raises(FrameError):
        encode_frame(["not", "an", "object"])  # type: ignore[arg-type]


def test_non_object_json_body_rejected_on_decode():
    body = json.dumps([1, 2, 3]).encode()
    blob = len(body).to_bytes(4, "big") + body
    with pytest.raises(FrameError):
        FrameDecoder().feed(blob)


def test_oversized_frame_rejected_on_encode():
    with pytest.raises(FrameTooLargeError):
        encode_frame({"blob": "x" * 64}, max_frame=32)


def test_oversized_header_rejected_before_body():
    # a header announcing 2x the limit must raise the instant the
    # header completes, without waiting for any body bytes
    decoder = FrameDecoder(max_frame=1024)
    with pytest.raises(FrameTooLargeError):
        decoder.feed((2048).to_bytes(4, "big"))


def test_truncated_stream_detected_on_close():
    blob = encode_frame({"rid": 9})
    decoder = FrameDecoder()
    decoder.feed(blob[:-3])
    with pytest.raises(TruncatedFrameError):
        decoder.close()


def test_clean_close_after_whole_frames():
    decoder = FrameDecoder()
    decoder.feed(encode_frame({"rid": 1}))
    decoder.close()  # no partial bytes -> no error


# -- the async reader ------------------------------------------------------


def _reader_with(data: bytes, eof: bool = True) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    if eof:
        reader.feed_eof()
    return reader


def test_read_frame_round_trip():
    async def go():
        payload = {"rid": 3, "payload": {"labels": ["golf"]}}
        reader = _reader_with(encode_frame(payload))
        assert await read_frame(reader) == payload
        assert await read_frame(reader) is None  # clean EOF

    run(go())


def test_read_frame_truncated_header_raises_not_hangs():
    async def go():
        reader = _reader_with(b"\x00\x00")
        with pytest.raises(TruncatedFrameError):
            await read_frame(reader)

    run(go())


def test_read_frame_truncated_body_raises_not_hangs():
    async def go():
        blob = encode_frame({"rid": 1, "pad": "y" * 100})
        reader = _reader_with(blob[:-10])
        with pytest.raises(TruncatedFrameError):
            await read_frame(reader)

    run(go())


def test_read_frame_oversized_rejected_before_body_read():
    async def go():
        # only the hostile header arrives, never a body; the reader
        # must reject immediately instead of awaiting 2 GiB
        reader = _reader_with(
            (2 ** 31).to_bytes(4, "big"), eof=False
        )
        with pytest.raises(FrameTooLargeError):
            await asyncio.wait_for(read_frame(reader), timeout=1.0)

    run(go())


# -- every domain object through the codec ---------------------------------


def _sample_digest() -> DigestResult:
    pipeline = DiversificationPipeline(
        make_queries(), lam=30.0, dedup_distance=None
    )
    return pipeline.digest(make_docs(18))


def test_document_round_trip():
    document = Document(5, 123.5, "golf putt body5")
    payload = codec_round_trip(document_to_dict(document))
    assert document_from_dict(payload) == document


def test_post_round_trip():
    post = Post(uid=4, value=77.25, labels=frozenset({"a", "b"}),
                text="hello")
    payload = codec_round_trip(post.to_dict())
    assert Post.from_dict(payload) == post


def test_instance_and_solution_round_trip():
    result = _sample_digest()
    instance = result.instance
    back = Instance.from_dict(codec_round_trip(instance.to_dict()))
    assert back.posts == instance.posts
    assert back.lam == instance.lam
    assert back.labels == instance.labels


def test_digest_result_round_trip():
    result = _sample_digest()
    back = DigestResult.from_dict(codec_round_trip(result.to_dict()))
    assert back.to_dict() == result.to_dict()


def test_digest_request_round_trip():
    request = DigestRequest(
        lam=25.0, labels=("nba", "golf"), algorithm="scan",
        session="tenant-a",
    )
    back = DigestRequest.from_dict(codec_round_trip(request.to_dict()))
    assert back == request
    # labels=None (whole universe) survives too
    wide = DigestRequest(lam=1.0)
    assert DigestRequest.from_dict(
        codec_round_trip(wide.to_dict())
    ) == wide


def test_service_response_round_trip():
    response = ServiceResponse(
        status="ok", result=_sample_digest(), algorithm="greedy_sc",
        cached=True, latency_s=0.01, epoch=3, trace_id="abc",
    )
    back = ServiceResponse.from_dict(
        codec_round_trip(response.to_dict())
    )
    assert back.to_dict() == response.to_dict()


def test_cluster_response_round_trip():
    response = ClusterResponse(
        status="degraded", result=_sample_digest(),
        algorithm="greedy_sc", latency_s=0.5, trace_id="t1",
        shards=("node0", "node2"), missing_labels=("tech",),
        seam_posts=2, resolves=1, hedges=1, reason="partial",
    )
    back = ClusterResponse.from_dict(
        codec_round_trip(response.to_dict())
    )
    assert back.to_dict() == response.to_dict()


def test_trace_context_and_span_round_trip():
    ctx = TraceContext.mint(tenant="t").at(17)
    assert TraceContext.from_dict(
        codec_round_trip(ctx.to_dict())
    ) == ctx
    span = Span(name="cluster.worker.digest", trace_id="abc",
                span_id=2, parent_id=1, started=0.5)
    back = Span.from_dict(codec_round_trip(span.as_dict()))
    assert back.as_dict() == span.as_dict()


def test_protocol_envelopes_round_trip():
    req = request_frame(
        "digest", 12, {"request": {"lam": 5.0}},
        trace=TraceContext.mint().to_dict(), want_spans=True,
    )
    assert codec_round_trip(req) == req
    ok = ok_frame(12, {"response": {"status": "ok"}},
                  spans=[{"name": "s"}])
    assert codec_round_trip(ok) == ok
    err = error_frame(12, "ReproError('boom')")
    assert codec_round_trip(err) == err


# -- property fuzz ---------------------------------------------------------

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 53), max_value=2 ** 53),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=40),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=10), children, max_size=4),
    ),
    max_leaves=20,
)
json_objects = st.dictionaries(
    st.text(max_size=10), json_values, max_size=6
)


@settings(max_examples=60, deadline=None)
@given(json_objects)
def test_fuzz_any_json_object_round_trips(payload):
    assert codec_round_trip(payload) == payload


@settings(max_examples=60, deadline=None)
@given(
    st.lists(json_objects, min_size=1, max_size=4),
    st.random_module(),
)
def test_fuzz_chunked_stream_never_splits_or_merges(payloads, rnd):
    import random

    blob = b"".join(encode_frame(p) for p in payloads)
    decoder = FrameDecoder()
    out = []
    i = 0
    while i < len(blob):
        step = random.randint(1, 7)
        out.extend(decoder.feed(blob[i:i + step]))
        i += step
    decoder.close()
    assert out == payloads


@settings(max_examples=60, deadline=None)
@given(
    json_objects,
    st.integers(min_value=1, max_value=2 ** 20),
)
def test_fuzz_truncation_never_yields_a_frame(payload, cut):
    blob = encode_frame(payload)
    cut = min(cut, len(blob) - 1)
    decoder = FrameDecoder()
    try:
        frames = decoder.feed(blob[:cut])
    except FrameError:
        return  # rejected outright is fine too
    assert frames == []  # a partial frame never decodes
    with pytest.raises(TruncatedFrameError):
        decoder.close()


@settings(max_examples=40, deadline=None)
@given(
    st.builds(
        Post,
        uid=st.integers(min_value=0, max_value=10 ** 9),
        value=st.floats(
            allow_nan=False, allow_infinity=False, width=64
        ),
        labels=st.frozensets(
            st.sampled_from(["q0", "q1", "q2", "q3"]),
            min_size=1, max_size=3,
        ),
        text=st.text(max_size=30),
    )
)
def test_fuzz_posts_survive_the_codec_exactly(post):
    assert Post.from_dict(codec_round_trip(post.to_dict())) == post


# -- a real scatter leg through the codec ----------------------------------


@pytest.fixture(scope="module")
def scatter_leg_frame() -> bytes:
    """The largest frame a worker sends back for one leg of a
    full-label-set digest on the fig13 day slice: the leg's rows."""
    frames = []
    encode = worker_module.encode_frame

    def recording(payload, max_frame=MAX_FRAME):
        blob = encode(payload, max_frame)
        if "instance" in (payload.get("payload") or {}):
            frames.append(blob)
        return blob

    async def go():
        async with LocalCluster(
            day_queries(), nodes=3,
            worker_config=default_worker_config(views=False),
        ) as cluster:
            await cluster.router.ingest(day_documents())
            response = await cluster.router.digest(DigestRequest(lam=LAM_S))
            assert response.status == "ok"
            assert len(response.shards) > 1  # it did scatter

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(worker_module, "encode_frame", recording)
        run(go())
    return max(frames, key=len)


def test_scatter_leg_frame_round_trips_byte_by_byte(scatter_leg_frame):
    decoder = FrameDecoder()
    frames = []
    for index in range(len(scatter_leg_frame)):
        frames.extend(decoder.feed(scatter_leg_frame[index:index + 1]))
    decoder.close()
    (frame,) = frames
    assert encode_frame(frame) == scatter_leg_frame
    payload = frame["payload"]["instance"]
    instance = Instance.from_dict(payload)
    assert instance.to_dict() == payload
    # a leg: some of the day's labels, not all of them
    assert 0 < len(instance.labels) < NUM_LABELS
    assert len(instance) > 0


def test_every_truncated_scatter_leg_frame_is_rejected(scatter_leg_frame):
    view = memoryview(scatter_leg_frame)
    for cut in range(1, len(view)):
        decoder = FrameDecoder()
        assert decoder.feed(view[:cut]) == []
        with pytest.raises(TruncatedFrameError):
            decoder.close()


def test_scatter_leg_frame_over_max_frame_is_rejected(scatter_leg_frame):
    body = len(scatter_leg_frame) - 4
    (frame,) = FrameDecoder(max_frame=body).feed(scatter_leg_frame)
    with pytest.raises(FrameTooLargeError):
        FrameDecoder(max_frame=body - 1).feed(scatter_leg_frame)
    with pytest.raises(FrameTooLargeError):
        encode_frame(frame, max_frame=body - 1)

    async def go():
        reader = _reader_with(scatter_leg_frame)
        with pytest.raises(FrameTooLargeError):
            await read_frame(reader, max_frame=body - 1)

    run(go())


def test_scatter_leg_frame_ships_its_values_packed(scatter_leg_frame):
    # 10,472 bytes when the values travelled as a JSON list of floats
    assert len(scatter_leg_frame) <= 9_000
    (frame,) = FrameDecoder().feed(scatter_leg_frame)
    instance = frame["payload"]["instance"]
    assert isinstance(instance["values"], str)
    assert len(instance["values"]) == -(-8 * len(instance["uids"]) // 3) * 4
