"""Prometheus exposition lint — the CI gate for scrape output.

Usage::

    python -m repro.observability.promlint FILE [FILE ...]
    python -m repro.observability.promlint -          # read stdin
    python -m repro.observability.promlint --self-check

``--self-check`` exercises the repo's own producers: it runs a tiny
instrumented workload and a synthetic SLO monitor, renders both text
expositions, and round-trips them through
:func:`~repro.observability.exporters.parse_prometheus`.  A formatting
regression in either producer fails the build here instead of a
deployment's scraper.

Exit status: 0 when every input parses, 1 on the first lint error.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .exporters import PromFormatError, parse_prometheus

__all__ = ["lint_text", "main"]


def lint_text(text: str, origin: str = "<input>") -> int:
    """Lint one exposition; returns the sample count.

    Raises :class:`PromFormatError` (annotated with ``origin``) on the
    first malformed line.
    """
    try:
        samples = parse_prometheus(text)
    except PromFormatError as exc:
        raise PromFormatError(f"{origin}: {exc}") from None
    return len(samples)


def _self_check() -> List[str]:
    """Render and lint every exposition this repo produces."""
    from .. import observability
    from ..core.instance import Instance
    from ..core.post import Post
    from ..core.scan import scan
    from .slo import SLOMonitor

    reports: List[str] = []
    posts = [
        Post(uid=i, value=float(i), labels=frozenset({"a", "b"}))
        for i in range(6)
    ]
    with observability.session() as bundle:
        scan(Instance(posts=posts, lam=2.0))
    text = observability.to_prometheus(bundle)
    reports.append(
        f"metrics exposition: {lint_text(text, 'to_prometheus')} samples"
    )

    # tenants are request sessions, which arrive off the cluster wire;
    # one is deliberately nasty so unescaped label values fail here
    slo = SLOMonitor()
    slo.record("acme", "scan", latency_s=0.01, status="ok")
    slo.record("acme", "scan", latency_s=0.05, status="shed")
    slo.record("beta", "greedy_sc", latency_s=0.02,
               status="degraded", cached=True)
    slo.record('ac"me\\\n', "scan", latency_s=0.03, status="ok")
    text = slo.to_prometheus()
    reports.append(
        f"slo exposition: {lint_text(text, 'SLOMonitor.to_prometheus')} "
        "samples"
    )

    # the federated page: two services scraped through a collector,
    # anomaly series included — per-node series must keep their
    # node= labels distinct (the duplicate-series lint) and label
    # values must escape cleanly (one node name is deliberately nasty)
    import asyncio

    from ..index.query import TopicQuery
    from ..service import DiversificationService, ServiceConfig
    from .anomaly import AnomalyEngine
    from .collector import Collector

    queries = [TopicQuery(label="q0", keywords=("alpha",)),
               TopicQuery(label="q1", keywords=("beta",))]
    services = {
        name: DiversificationService(queries, ServiceConfig())
        for name in ("node-a", 'node"b\\weird')
    }
    engine = AnomalyEngine()
    collector = Collector.for_services(services, engine=engine)
    asyncio.run(collector.collect_once())
    text = collector.to_prometheus()
    reports.append(
        "federated exposition: "
        f"{lint_text(text, 'Collector.to_prometheus')} samples"
    )
    return reports


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.observability.promlint",
        description="Lint Prometheus text exposition files.",
    )
    parser.add_argument(
        "files", nargs="*",
        help="exposition files to lint ('-' for stdin)",
    )
    parser.add_argument(
        "--self-check", action="store_true",
        help="lint the expositions this repo's own exporters produce",
    )
    args = parser.parse_args(argv)
    if not args.files and not args.self_check:
        parser.error("nothing to lint: pass files, '-', or --self-check")
    try:
        if args.self_check:
            for line in _self_check():
                print(f"OK {line}")
        for name in args.files:
            if name == "-":
                count = lint_text(sys.stdin.read(), "<stdin>")
            else:
                with open(name, "r", encoding="utf-8") as handle:
                    count = lint_text(handle.read(), name)
            print(f"OK {name}: {count} samples")
    except PromFormatError as exc:
        print(f"LINT ERROR {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(main())
