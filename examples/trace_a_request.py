"""Tracing one digest request through the serving stack.

An operator's question — "why was *this* response slow, and who solved
it?" — answered with the observability layer: serve a handful of
requests (cold, cache hit, coalesced pair), then assemble each
response's span tree, follow the link-spans to the trace that actually
did the solving, and read the per-tenant SLO and audit state off
``service.introspect()``.

Run with::

    python examples/trace_a_request.py
"""

import asyncio

from repro import observability
from repro.index.inverted_index import Document
from repro.index.query import TopicQuery
from repro.service import DigestRequest, DiversificationService, ServiceConfig

TOPICS = [
    TopicQuery("golf", ["golf", "putt"]),
    TopicQuery("nba", ["nba", "dunk"]),
    TopicQuery("tech", ["cpu", "kernel"]),
]
TEXTS = ("golf putt", "nba dunk", "cpu kernel")


def make_docs(n: int = 24):
    return [
        Document(i, i * 10.0, f"{TEXTS[i % 3]} update{i} token{i * 7}")
        for i in range(n)
    ]


def print_tree(node, depth: int = 0) -> None:
    """One assembled span, indented by nesting depth."""
    duration = node["ended"] - node["started"]
    print(f"  {'  ' * depth}{node['name']}  ({duration * 1e3:.2f} ms)")
    for child in node["children"]:
        print_tree(child, depth + 1)
    linked = node.get("linked")
    if linked:
        print(f"  {'  ' * (depth + 1)}--> linked trace "
              f"{linked['trace_id'][:8]} ({linked['spans']} spans)")


async def serve(service):
    cold = await service.digest(
        DigestRequest(lam=25.0, session="alice"))
    hit = await service.digest(
        DigestRequest(lam=25.0, session="bob"))
    pair = await asyncio.gather(
        service.digest(DigestRequest(lam=40.0, session="carol")),
        service.digest(DigestRequest(lam=40.0, session="dave")),
    )
    return cold, hit, pair


def main() -> None:
    with observability.session() as bundle:
        service = DiversificationService(
            TOPICS,
            ServiceConfig(dedup_distance=None, audit_sample=1.0),
        )
        service.ingest(make_docs())
        cold, hit, (a, b) = asyncio.run(serve(service))

        # -- the cold request: its own trace did the solving ----------
        tree = bundle.tracer.assemble(cold.trace_id)
        print(f"assembled trace {cold.trace_id[:8]} "
              f"(alice, cold): {tree['spans']} spans")
        for root in tree["roots"]:
            print_tree(root)
        print()

        # -- the cache hit: a link-span names the producing trace -----
        assert hit.cached and hit.result.trace_id == cold.trace_id
        tree = bundle.tracer.assemble(hit.trace_id)
        print(f"assembled trace {hit.trace_id[:8]} (bob, cache hit) "
              f"links back to {hit.result.trace_id[:8]}:")
        for root in tree["roots"]:
            print_tree(root)
        print()

        # -- the coalesced pair: one solve, two traces -----------------
        follower = a if a.coalesced else b
        leader = b if a.coalesced else a
        print(f"coalesced pair: leader {leader.trace_id[:8]} solved; "
              f"follower {follower.trace_id[:8]} awaited it "
              f"(service.solves = {service.solves})")
        print()

        # -- per-tenant SLO and audit state off introspect() -----------
        service.auditor.audit_pending()
        snap = service.introspect()
        print("per-tenant SLO snapshot:")
        for record in snap["slo"]:
            latency = record["latency"]
            print(
                f"  {record['tenant']:>6} / {record['algorithm']}: "
                f"p95 = {latency['p95'] * 1e3:.2f} ms, burn = "
                f"{record['burn']['fast']['burn_rate']:.2f}, budget = "
                f"{record['error_budget_remaining']:.2f}"
            )
        audit = snap["auditor"]
        print(
            f"audit: {audit['audited']} digests re-verified, "
            f"pass rate {audit['pass_rate']:.2f}, "
            f"violations {audit['coverage_violations']}"
        )


if __name__ == "__main__":
    main()
