"""Span-based tracing with a deterministic clock."""

import asyncio
import json
import re

import pytest

from repro.observability.tracing import Span, TraceContext, Tracer, \
    mint_trace_id


class TestTracer:
    def test_span_duration_from_injected_clock(self, fake_clock):
        tracer = Tracer(clock=fake_clock(10.0, 13.5))
        with tracer.span("work") as span:
            pass
        assert span.duration == 3.5
        assert list(tracer.finished) == [span]

    def test_nesting_records_parent_ids(self, fake_clock):
        tracer = Tracer(clock=fake_clock(step=1.0))
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.depth == 2
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        # children finish (and are recorded) before their parents
        assert [s.name for s in tracer.finished] == ["inner", "outer"]

    def test_attributes_at_open_and_during(self, fake_clock):
        tracer = Tracer(clock=fake_clock(step=1.0))
        with tracer.span("solve", algorithm="scan") as span:
            span.set_attribute("solution_size", 7)
        assert span.attributes == {
            "algorithm": "scan", "solution_size": 7,
        }

    def test_exception_closes_span_and_flags_error(self, fake_clock):
        tracer = Tracer(clock=fake_clock(step=1.0))
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (span,) = tracer.finished
        assert span.ended is not None
        assert "RuntimeError" in span.attributes["error"]
        assert tracer.depth == 0

    def test_open_span_has_no_duration(self, fake_clock):
        tracer = Tracer(clock=fake_clock(step=1.0))
        manager = tracer.span("open")
        span = manager.__enter__()
        assert span.duration is None
        manager.__exit__(None, None, None)
        assert span.duration is not None

    def test_as_dicts_round_trips_json(self, fake_clock):
        tracer = Tracer(clock=fake_clock(step=1.0))
        with tracer.span("a", flag=True):
            pass
        json.dumps(tracer.as_dicts())  # must not raise
        (record,) = tracer.as_dicts()
        assert record["name"] == "a"
        assert record["duration"] == pytest.approx(1.0)

    def test_as_dicts_is_ordered_by_span_id(self, fake_clock):
        # completion order is child-first; exports must be allocation
        # order, which is stable under concurrency
        tracer = Tracer(clock=fake_clock(step=1.0))
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [s.name for s in tracer.finished] == ["inner", "outer"]
        assert [d["name"] for d in tracer.as_dicts()] == \
            ["outer", "inner"]
        ids = [d["span_id"] for d in tracer.as_dicts()]
        assert ids == sorted(ids)


class TestSpanRoundTrip:
    def test_finished_span_round_trips(self, fake_clock):
        tracer = Tracer(clock=fake_clock(step=1.0))
        with tracer.span("work", kind="unit") as span:
            pass
        restored = Span.from_dict(span.as_dict())
        assert restored == span

    def test_open_span_round_trips_with_none_ended(self, fake_clock):
        tracer = Tracer(clock=fake_clock(step=1.0))
        manager = tracer.span("open")
        span = manager.__enter__()
        payload = json.loads(json.dumps(span.as_dict()))
        restored = Span.from_dict(payload)
        assert restored.ended is None
        assert restored.duration is None
        assert restored == span
        manager.__exit__(None, None, None)


class TestTraceContext:
    def test_mint_is_unique_and_carries_tenant(self):
        a = TraceContext.mint(tenant="acme")
        b = TraceContext.mint(tenant="acme")
        assert a.trace_id != b.trace_id
        assert a.tenant == "acme"
        assert a.span_id is None

    def test_minted_ids_are_distinct_32_lowercase_hex(self):
        ids = [mint_trace_id() for _ in range(10_000)]
        assert len(set(ids)) == len(ids)
        shape = re.compile(r"[0-9a-f]{32}")
        assert all(shape.fullmatch(trace_id) for trace_id in ids)

    def test_at_rebases_parent_span(self):
        ctx = TraceContext.mint()
        child = ctx.at(7)
        assert child.trace_id == ctx.trace_id
        assert child.span_id == 7

    def test_wire_round_trip(self):
        ctx = TraceContext.mint(tenant="t").at(3)
        payload = json.loads(json.dumps(ctx.to_dict()))
        assert TraceContext.from_dict(payload) == ctx

    def test_only_an_unsampled_verdict_travels(self):
        ctx = TraceContext.mint(tenant="t").at(3)
        assert "sampled" not in ctx.to_dict()
        unsampled = ctx.unsampled()
        payload = json.loads(json.dumps(unsampled.to_dict()))
        assert payload["sampled"] is False
        again = TraceContext.from_dict(payload)
        assert again == unsampled and not again.sampled

    def test_activation_parents_rootless_spans(self, fake_clock):
        tracer = Tracer(clock=fake_clock(step=1.0))
        ctx = TraceContext.mint(tenant="acme").at(99)
        with tracer.activate(ctx):
            with tracer.span("child") as span:
                pass
        assert span.parent_id == 99
        assert span.trace_id == ctx.trace_id

    def test_local_parent_beats_activated_context(self, fake_clock):
        tracer = Tracer(clock=fake_clock(step=1.0))
        ctx = TraceContext.mint().at(99)
        with tracer.activate(ctx):
            with tracer.span("outer") as outer:
                with tracer.span("inner") as inner:
                    pass
        assert outer.parent_id == 99
        assert inner.parent_id == outer.span_id
        assert inner.trace_id == ctx.trace_id

    def test_activate_none_is_inert(self, fake_clock):
        tracer = Tracer(clock=fake_clock(step=1.0))
        with tracer.activate(None):
            with tracer.span("free") as span:
                pass
        assert span.parent_id is None
        assert span.trace_id is None

    def test_current_context_tracks_innermost_span(self, fake_clock):
        tracer = Tracer(clock=fake_clock(step=1.0))
        assert tracer.current_context() is None
        ctx = TraceContext.mint()
        with tracer.activate(ctx):
            assert tracer.current_context() == ctx
            with tracer.span("s") as span:
                inner = tracer.current_context(tenant="t")
                assert inner.trace_id == ctx.trace_id
                assert inner.span_id == span.span_id
                assert inner.tenant == "t"


class TestAsyncioIsolation:
    def test_concurrent_tasks_do_not_cross_parent(self, fake_clock):
        # two requests interleaving awaits on one loop thread must not
        # adopt each other's open spans as parents
        tracer = Tracer(clock=fake_clock(step=1.0))

        async def request(name):
            with tracer.span(name) as root:
                await asyncio.sleep(0)
                with tracer.span(name + ".child") as child:
                    await asyncio.sleep(0)
            return root, child

        async def main():
            return await asyncio.gather(request("a"), request("b"))

        (ra, ca), (rb, cb) = asyncio.run(main())
        assert ra.parent_id is None and rb.parent_id is None
        assert ca.parent_id == ra.span_id
        assert cb.parent_id == rb.span_id

    def test_tasks_inherit_creators_context(self, fake_clock):
        tracer = Tracer(clock=fake_clock(step=1.0))
        ctx = TraceContext.mint().at(5)

        async def main():
            with tracer.activate(ctx):
                task = asyncio.ensure_future(child())
            return await task

        async def child():
            with tracer.span("inherited") as span:
                pass
            return span

        span = asyncio.run(main())
        assert span.parent_id == 5
        assert span.trace_id == ctx.trace_id


class TestAdopt:
    def _worker_spans(self, fake_clock):
        worker = Tracer(clock=fake_clock(step=1.0))
        with worker.span("shard", shard=0):
            with worker.span("kernel"):
                pass
        return worker.as_dicts()

    def test_adopt_remaps_ids_and_grafts_roots(self, fake_clock):
        parent = Tracer(clock=fake_clock(step=1.0))
        with parent.span("solve") as solve:
            pass
        adopted = parent.adopt(
            self._worker_spans(fake_clock),
            parent_id=solve.span_id, trace_id="trace-1",
        )
        shard = next(s for s in adopted if s.name == "shard")
        kernel = next(s for s in adopted if s.name == "kernel")
        assert shard.parent_id == solve.span_id
        assert kernel.parent_id == shard.span_id
        assert {s.trace_id for s in adopted} == {"trace-1"}
        # fresh ids: no collision with the parent's own spans
        ids = [d["span_id"] for d in parent.as_dicts()]
        assert len(ids) == len(set(ids)) == 3

    def test_adopt_preserves_attributes_and_times(self, fake_clock):
        parent = Tracer(clock=fake_clock(step=1.0))
        exported = self._worker_spans(fake_clock)
        (shard,) = [
            s for s in parent.adopt(exported) if s.name == "shard"
        ]
        assert shard.attributes == {"shard": 0}
        assert shard.duration is not None

    def test_adopt_without_overrides_keeps_roots_and_trace(self, fake_clock):
        parent = Tracer(clock=fake_clock(step=1.0))
        exported = self._worker_spans(fake_clock)
        adopted = parent.adopt(exported)
        shard = next(s for s in adopted if s.name == "shard")
        kernel = next(s for s in adopted if s.name == "kernel")
        assert shard.parent_id is None
        assert kernel.parent_id == shard.span_id
        assert [s.trace_id for s in adopted] == \
            [d["trace_id"] for d in sorted(exported,
                                           key=lambda d: d["span_id"])]

    def test_adopt_order_of_input_does_not_matter(self, fake_clock):
        # children listed before their parents still re-link in-set
        parent = Tracer(clock=fake_clock(step=1.0))
        exported = list(reversed(self._worker_spans(fake_clock)))
        adopted = parent.adopt(exported, parent_id=99)
        shard = next(s for s in adopted if s.name == "shard")
        kernel = next(s for s in adopted if s.name == "kernel")
        assert shard.parent_id == 99
        assert kernel.parent_id == shard.span_id

    def test_adopted_ids_never_collide_with_later_local_spans(
        self, fake_clock
    ):
        parent = Tracer(clock=fake_clock(step=1.0))
        with parent.span("before"):
            pass
        parent.adopt(self._worker_spans(fake_clock))
        parent.adopt(self._worker_spans(fake_clock))
        with parent.span("after"):
            pass
        ids = [d["span_id"] for d in parent.as_dicts()]
        assert len(ids) == len(set(ids)) == 6

    def test_adopt_keeps_a_failed_worker_span(self, fake_clock):
        worker = Tracer(clock=fake_clock(step=1.0))
        with pytest.raises(RuntimeError):
            with worker.span("shard"):
                raise RuntimeError("boom 7")
        parent = Tracer(clock=fake_clock(step=1.0))
        (span,) = parent.adopt(worker.as_dicts())
        assert "boom 7" in span.attributes["error"]
        assert span.duration is not None

    def test_adopt_respects_the_finished_ring(self, fake_clock):
        parent = Tracer(clock=fake_clock(step=1.0), max_finished=3)
        with parent.span("local"):
            pass
        parent.adopt(self._worker_spans(fake_clock))
        parent.adopt(self._worker_spans(fake_clock))
        assert len(parent.finished) == 3
        assert parent.dropped_spans == 2
        assert "local" not in [s.name for s in parent.finished]


class TestAssemble:
    def test_assemble_builds_the_span_tree(self, fake_clock):
        tracer = Tracer(clock=fake_clock(step=1.0))
        ctx = TraceContext.mint()
        with tracer.activate(ctx):
            with tracer.span("request"):
                with tracer.span("solve"):
                    with tracer.span("shard"):
                        pass
                with tracer.span("cache"):
                    pass
        tree = tracer.assemble(ctx.trace_id)
        assert tree["spans"] == 4
        (root,) = tree["roots"]
        assert root["name"] == "request"
        names = sorted(c["name"] for c in root["children"])
        assert names == ["cache", "solve"]
        (solve,) = [
            c for c in root["children"] if c["name"] == "solve"
        ]
        assert [c["name"] for c in solve["children"]] == ["shard"]

    def test_assemble_includes_open_spans(self, fake_clock):
        tracer = Tracer(clock=fake_clock(step=1.0))
        ctx = TraceContext.mint()
        with tracer.activate(ctx):
            manager = tracer.span("inflight")
            manager.__enter__()
            tree = tracer.assemble(ctx.trace_id)
            manager.__exit__(None, None, None)
        (root,) = tree["roots"]
        assert root["name"] == "inflight"
        assert root["ended"] is None

    def test_assemble_follows_links_one_level(self, fake_clock):
        tracer = Tracer(clock=fake_clock(step=1.0))
        leader = TraceContext.mint()
        with tracer.activate(leader):
            with tracer.span("leader.solve") as solve:
                pass
        follower = TraceContext.mint()
        with tracer.activate(follower):
            with tracer.span(
                "coalesced",
                link_trace_id=leader.trace_id,
                link_span_id=solve.span_id,
            ):
                pass
        tree = tracer.assemble(follower.trace_id)
        (root,) = tree["roots"]
        linked = root["linked"]
        assert linked["trace_id"] == leader.trace_id
        assert linked["roots"][0]["name"] == "leader.solve"

    def test_open_spans_snapshot(self, fake_clock):
        tracer = Tracer(clock=fake_clock(step=1.0))
        assert tracer.open_spans() == []
        manager = tracer.span("live")
        manager.__enter__()
        (snap,) = tracer.open_spans()
        assert snap["name"] == "live" and snap["ended"] is None
        manager.__exit__(None, None, None)
        assert tracer.open_spans() == []
