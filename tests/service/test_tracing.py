"""End-to-end request tracing through the serving stack.

The property under test: *every* served response — cold, cache hit,
coalesced follower, degraded, shed — carries a trace_id whose assembled
span tree is a real tree (every parent resolves in-trace, no cycles),
rooted at ``service.request``, and whose link-spans resolve to the trace
that actually computed the digest.  Checked across the solve's hop to an
executor thread and under admission-triggered degradation.
"""

from __future__ import annotations

import asyncio
import logging

import pytest

from repro import observability
from repro.observability import facade, structlog
from repro.observability.tracing import TraceContext
from repro.service import DigestRequest

from .conftest import make_docs, make_service, run


# -- tree property helpers --------------------------------------------------

def assert_is_tree(assembled):
    """Parent links resolve in-trace, acyclically, covering every span."""
    seen = set()

    def walk(node, parent_id):
        sid = node["span_id"]
        assert sid not in seen, f"span {sid} reached twice (cycle?)"
        seen.add(sid)
        if parent_id is not None:
            assert node["parent_id"] == parent_id
        for child in node.get("children", []):
            walk(child, sid)

    for root in assembled["roots"]:
        walk(root, None)
    assert len(seen) == assembled["spans"]
    return seen


def names_of(assembled):
    out = []

    def walk(node):
        out.append(node["name"])
        for child in node.get("children", []):
            walk(child)
        linked = node.get("linked")
        if linked:
            for root in linked["roots"]:
                walk(root)

    for root in assembled["roots"]:
        walk(root)
    return out


def find_spans(assembled, name):
    found = []

    def walk(node):
        if node["name"] == name:
            found.append(node)
        for child in node.get("children", []):
            walk(child)

    for root in assembled["roots"]:
        walk(root)
    return found


def assert_traced_request(bundle, response, *, expect=()):
    """The per-response property: trace_id + well-formed span tree."""
    assert response.trace_id, f"{response.status} response lost its trace"
    tree = bundle.tracer.assemble(response.trace_id)
    assert tree["spans"] > 0
    assert_is_tree(tree)
    roots = [r["name"] for r in tree["roots"]]
    assert "service.request" in roots
    names = names_of(tree)
    for name in expect:
        assert name in names, f"{name} missing from {names}"
    return tree


# -- every status carries a well-formed trace -------------------------------

class TestEveryStatusIsTraced:
    def test_cold_cached_and_coalesced(self):
        with observability.session() as bundle:
            service = make_service()
            service.ingest(make_docs())

            async def scenario():
                cold = await service.digest(
                    DigestRequest(lam=25.0, session="acme"))
                a, b = await asyncio.gather(
                    service.digest(DigestRequest(lam=30.0)),
                    service.digest(DigestRequest(lam=30.0)),
                )
                hit = await service.digest(
                    DigestRequest(lam=25.0, session="beta"))
                return cold, a, b, hit

            cold, a, b, hit = run(scenario())
            # cold: its own trace did the solving
            assert cold.status == "ok" and not cold.cached
            assert cold.result.trace_id == cold.trace_id
            assert cold.result.solve_span_id is not None
            assert_traced_request(
                bundle, cold, expect=("service.solve",))
            # coalesced pair: exactly one solver run, two traces
            assert {a.coalesced, b.coalesced} == {True, False}
            follower = a if a.coalesced else b
            leader = b if a.coalesced else a
            assert follower.trace_id != leader.trace_id
            assert follower.result.trace_id == leader.trace_id
            # cache hit: fresh trace, producer's digest
            assert hit.cached
            assert hit.trace_id != cold.trace_id
            assert hit.result.trace_id == cold.trace_id
            assert_traced_request(
                bundle, hit, expect=("service.cache_hit",))
            # distinct requests never share span ids
            trees = [bundle.tracer.assemble(r.trace_id)
                     for r in (cold, a, b, hit)]
            ids = [assert_is_tree(t) for t in trees]
            assert not set.intersection(*map(set, ids))

    def test_shed_and_degraded_are_traced(self):
        with observability.session() as bundle:
            service = make_service(rate=0.0001, burst=1.0)
            service.ingest(make_docs(6))

            async def scenario():
                ok = await service.digest(DigestRequest(lam=25.0))
                shed = await service.digest(DigestRequest(lam=30.0))
                return ok, shed

            ok, shed = run(scenario())
            assert shed.status == "shed" and shed.result is None
            assert_traced_request(bundle, shed)
            assert shed.trace_id != ok.trace_id

    def test_error_is_traced(self):
        with observability.session() as bundle:
            service = make_service()
            service.ingest(make_docs(6))
            response = run(service.digest(
                DigestRequest(lam=25.0, labels=("nope",))))
            assert response.status == "error"
            assert_traced_request(bundle, response)

    def test_trace_id_minted_even_with_observability_off(self):
        service = make_service()
        service.ingest(make_docs(6))
        response = run(service.digest(DigestRequest(lam=25.0)))
        assert response.status == "ok"
        assert response.trace_id
        assert response.result.trace_id == response.trace_id


# -- link-spans resolve to the producing trace ------------------------------

class TestLinkSpans:
    def test_follower_links_to_leaders_solve_span(self):
        with observability.session() as bundle:
            service = make_service()
            service.ingest(make_docs())

            async def scenario():
                return await asyncio.gather(
                    service.digest(DigestRequest(lam=26.0, session="x")),
                    service.digest(DigestRequest(lam=26.0, session="y")),
                )

            a, b = run(scenario())
            follower = a if a.coalesced else b
            leader = b if a.coalesced else a
            tree = assert_traced_request(
                bundle, follower, expect=("service.coalesced_wait",))
            (link,) = find_spans(tree, "service.coalesced_wait")
            assert link["attributes"]["link_trace_id"] == leader.trace_id
            assert link["attributes"]["link_span_id"] == \
                leader.result.solve_span_id
            # following the link lands in the leader's solve
            linked_names = names_of(link["linked"])
            assert "service.solve" in linked_names
            leader_ids = assert_is_tree(
                bundle.tracer.assemble(leader.trace_id))
            assert leader.result.solve_span_id in leader_ids

    def test_cache_hit_links_to_producing_trace(self):
        with observability.session() as bundle:
            service = make_service()
            service.ingest(make_docs())

            async def scenario():
                cold = await service.digest(DigestRequest(lam=25.0))
                hit = await service.digest(DigestRequest(lam=25.0))
                return cold, hit

            cold, hit = run(scenario())
            tree = assert_traced_request(
                bundle, hit, expect=("service.cache_hit",))
            (link,) = find_spans(tree, "service.cache_hit")
            assert link["attributes"]["link_trace_id"] == cold.trace_id
            assert link["attributes"]["link_span_id"] == \
                cold.result.solve_span_id
            assert "service.solve" in names_of(link["linked"])


# -- solves on an executor thread ---------------------------------------------

def descendants(node):
    for child in node.get("children", []):
        yield child
        yield from descendants(child)


class TestExecutors:
    @pytest.mark.parametrize("algorithm", ["scan", "scan+", "greedy_sc"])
    def test_solver_spans_join_the_trace(self, algorithm):
        # the solve runs on an executor thread with no inherited trace
        # state; its solver span must still land under this request
        with observability.session() as bundle:
            service = make_service()
            service.ingest(make_docs())
            response = run(service.digest(DigestRequest(
                lam=25.0, algorithm=algorithm)))
            assert response.status == "ok"
            tree = assert_traced_request(
                bundle, response,
                expect=("service.solve", f"solver.{algorithm}"))
            (solve,) = find_spans(tree, "service.solve")
            assert [n["name"] for n in descendants(solve)
                    if n["name"].startswith("solver.")] == \
                [f"solver.{algorithm}"]
            service.close()

    def test_concurrent_thread_solves_keep_their_own_traces(self):
        with observability.session() as bundle:
            service = make_service()
            service.ingest(make_docs())

            async def scenario():
                return await asyncio.gather(*[
                    service.digest(DigestRequest(
                        lam=20.0 + i, algorithm="scan+"))
                    for i in range(4)
                ])

            responses = run(scenario())
            assert [r.status for r in responses] == ["ok"] * 4
            assert len({r.trace_id for r in responses}) == 4
            for response in responses:
                tree = assert_traced_request(
                    bundle, response, expect=("service.solve",))
                assert len(find_spans(tree, "service.solve")) == 1
                assert "solver.scan+" in names_of(tree)
                assert response.result.trace_id == response.trace_id
            service.close()


# -- admission-triggered degradation under load -----------------------------

class TestDegradationTracing:
    def test_degraded_responses_stay_traced_and_evented(self):
        with observability.session() as bundle:
            service = make_service(
                soft_watermark=1, hard_watermark=64,
                algorithm="greedy_sc",
            )
            service.ingest(make_docs())

            async def scenario():
                return await asyncio.gather(*[
                    service.digest(DigestRequest(
                        lam=20.0 + i, session=f"t{i}"))
                    for i in range(4)
                ])

            with structlog.capture() as events:
                responses = run(scenario())
            statuses = {r.status for r in responses}
            assert "degraded" in statuses
            for response in responses:
                expect = ("service.solve",) if response.result and \
                    response.result.trace_id == response.trace_id else ()
                assert_traced_request(bundle, response, expect=expect)
            degrade_events = [
                e for e in events if e["event"] == "service.degrade"
            ]
            assert degrade_events
            degraded = [r for r in responses if r.status == "degraded"]
            assert {e["trace_id"] for e in degrade_events} >= \
                {r.trace_id for r in degraded}
            # ladder steps are recorded in the event
            assert all(e["requested"] == "greedy_sc"
                       for e in degrade_events)
            assert all(e["steps"] >= 1 for e in degrade_events)


# -- quiet-failure regression: correlated events ----------------------------

class TestQuietFailureEvents:
    def test_shed_emits_correlated_warning(self):
        service = make_service(rate=0.0001, burst=1.0)
        service.ingest(make_docs(6))

        async def scenario():
            await service.digest(DigestRequest(lam=25.0))
            with structlog.capture() as events:
                shed = await service.digest(
                    DigestRequest(lam=30.0, session="acme"))
            return shed, events

        shed, events = run(scenario())
        assert shed.status == "shed"
        (event,) = [e for e in events if e["event"] == "service.shed"]
        assert event["level"] == "WARNING"
        assert event["trace_id"] == shed.trace_id
        assert event["tenant"] == "acme"
        assert event["reason"] == shed.reason

    def test_cache_invalidation_race_emits_correlated_event(self):
        service = make_service()
        service.ingest(make_docs())

        async def scenario():
            async def racing_solve():
                return await service.digest(
                    DigestRequest(lam=25.0, session="acme"))

            task = asyncio.ensure_future(racing_solve())
            await asyncio.sleep(0)  # let the solve enter the executor
            service.ingest(make_docs(3, offset=100))  # epoch moves
            return await task

        with structlog.capture() as events:
            response = run(scenario())
        # the digest was served, but publishing it was refused
        assert response.status == "ok"
        assert service.cache.stats.stale_drops == 1
        assert len(service.cache) == 0
        (event,) = [
            e for e in events if e["event"] == "service.cache_stale_drop"
        ]
        assert event["level"] == "WARNING"
        assert event["trace_id"] == response.trace_id
        assert event["tenant"] == "acme"
        assert event["key_epoch"] < event["epoch"]

    def test_every_response_status_is_evented(self):
        with observability.session():
            service = make_service()
            service.ingest(make_docs())

            async def scenario():
                with structlog.capture() as events:
                    cold = await service.digest(DigestRequest(lam=25.0))
                    hit = await service.digest(DigestRequest(lam=25.0))
                return (cold, hit), events

            (cold, hit), events = run(scenario())
            ok_events = [e for e in events if e["event"] == "service.ok"]
            assert {e["trace_id"] for e in ok_events} == \
                {cold.trace_id, hit.trace_id}
            cached_flags = {e["trace_id"]: e["cached"] for e in ok_events}
            assert cached_flags[cold.trace_id] is False
            assert cached_flags[hit.trace_id] is True


# -- the introspection endpoint ---------------------------------------------

class TestIntrospect:
    def test_introspect_is_json_safe_and_complete(self):
        import json

        with observability.session():
            service = make_service(audit_sample=1.0)
            service.ingest(make_docs())
            run(service.digest(DigestRequest(lam=25.0, session="acme")))
            snap = service.introspect()
        json.dumps(snap)
        assert snap["epoch"] == 1
        assert snap["corpus"]["ingested"] == 24
        assert snap["queues"]["pending"] == 0
        assert snap["cache"]["entries"] == 1
        assert snap["cache"]["stats"]["stale_drops"] == 0
        assert snap["admission"]["decisions"]["admit"] == 1
        assert snap["observability_enabled"] is True
        assert snap["open_spans"] == []
        (slo_record,) = snap["slo"]
        assert slo_record["tenant"] == "acme"
        assert slo_record["lifetime"]["requests"] == 1
        assert snap["auditor"]["sampled"] == 1
        # supervisor health appears once the streaming path has run;
        # the key itself is always present
        assert "supervisor" in snap

    def test_introspect_without_observability(self):
        service = make_service()
        service.ingest(make_docs(6))
        run(service.digest(DigestRequest(lam=25.0)))
        snap = service.introspect()
        assert snap["observability_enabled"] is False
        assert snap["open_spans"] == []
        assert len(snap["slo"]) == 1

    def test_slo_prometheus_round_trips(self):
        from repro.observability import parse_prometheus

        service = make_service()
        service.ingest(make_docs(6))
        # the tenant is the request's session, which arrives off the
        # cluster wire: every label value must escape and parse back
        sessions = ("acme", 'ac"me', "back\\slash", "new\nline", "}{")
        for session in sessions:
            run(service.digest(DigestRequest(lam=25.0, session=session)))
        samples = parse_prometheus(service.slo_prometheus())
        labels = [s["labels"] for s in samples
                  if s["name"] == "service_slo_requests_total"]
        for session in sessions:
            assert {"tenant": session, "algorithm": "greedy_sc"} in labels


# -- head sampling ------------------------------------------------------------

class TestHeadSampling:
    def test_an_unsampled_request_records_no_span(self):
        # the solve's executor thread and the solver run under the
        # request's context too: an unsampled request opens none there
        with observability.session() as bundle:
            service = make_service(trace_sample=0.0)
            service.ingest(make_docs())
            response = run(service.digest(DigestRequest(lam=25.0)))
            assert response.status == "ok" and not response.cached
            assert service.solves == 1
            assert response.trace_id
            assert not bundle.tracer.finished
            counters = bundle.registry.counters()
            assert counters["service.trace_unsampled"] == 1
            assert counters["service.solves"] == 1

    def test_a_callers_unsampled_verdict_is_followed(self):
        # a cluster worker serves a leg its router left unsampled under
        # that context: the service, tracing everything by its own
        # setting, records no span for it
        async def leg(service):
            caller = TraceContext.mint(tenant="router").unsampled()
            with facade.activate(caller):
                return await service.digest(DigestRequest(lam=25.0))

        with observability.session() as bundle:
            service = make_service()
            service.ingest(make_docs())
            response = run(leg(service))
            assert response.status == "ok" and service.solves == 1
            assert not bundle.tracer.finished
            assert bundle.registry.counters()[
                "service.trace_unsampled"] == 1
            # without the caller's context the same service traces
            run(service.digest(DigestRequest(lam=25.0)))
            assert bundle.tracer.finished
