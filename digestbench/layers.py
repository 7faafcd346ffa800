"""The traced run: spans around each layer's entry points, and attribution.

Spans are recorded from the benchmark's own code, by replacing each entry
point where it is looked up: a method on its class, or a module-level name
in the module that calls it (``encode_frame`` in the router and the worker,
``solve`` in the pipeline and the router, ``greedy_set_cover`` and
``build_setcover_family`` in ``repro.core.greedy_sc``).  Hot per-post
functions (``Post.from_dict``, ``Post.__post_init__``) stay unwrapped;
their time is charged to the entry point that calls them.  The CPython
collector is traced too, through ``gc.callbacks``, as the ``gc`` layer.

Attribution: one client drives the run, so every span inside a digest's
interval belongs to that digest, including spans on the service's executor
threads.  Each instant of the interval is charged to the most recently
started span still open, which is a span's duration minus the part its
children cover; where spans of concurrent scatter legs overlap, each
instant is still charged once.  Instants no span covers are
``unattributed``.  The per-layer self-times plus ``unattributed`` therefore
add up to the digest's wall time exactly.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import gc
import gzip
import heapq
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, \
    Optional, Tuple

UNATTRIBUTED = ("unattributed", "")
SCAN_ALGORITHMS = ("scan", "scan+")


class Span(NamedTuple):
    sid: int
    parent: int
    layer: str
    name: str
    start: float
    end: float
    thread: int
    extra: Any


def _pairs(family) -> int:
    """Set-cover family size: (coverer, covered pair) memberships."""
    return sum(len(members) for members in family)


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "digestbench_span", default=0
        )
        self._undo: List[Callable[[], None]] = []
        self._gc_start = 0.0
        self._gc_parent = 0

    # -- span wrappers -----------------------------------------------------

    def _finish(self, sid, parent, layer, name, start, end, extra) -> None:
        self.spans.append(Span(
            sid, parent, layer, name, start, end, threading.get_ident(),
            extra,
        ))

    def wrap(self, layer, name: str, fn: Callable,
             extra: Optional[Callable[[Any], Any]] = None) -> Callable:
        """Time a synchronous callable.  ``layer`` may be a function of
        the call's positional arguments (``solve`` picks it from the
        algorithm name); ``extra`` derives a number from the result."""
        current = self._current
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = current.get()
            token = current.set(sid)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                # the end is read before ``layer`` and ``extra`` run, so
                # the benchmark's own counting stays outside the span
                end = time.perf_counter()
                current.reset(token)
                self._finish(
                    sid, parent,
                    layer(args) if callable(layer) else layer, name, start,
                    end,
                    None if extra is None or result is None
                    else extra(result),
                )

        return traced

    def wrap_async(self, layer: str, name: str, fn: Callable) -> Callable:
        current = self._current
        ids = self._ids

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            sid = next(ids)
            parent = current.get()
            token = current.set(sid)
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                current.reset(token)
                self._finish(sid, parent, layer, name, start, end, None)

        return traced

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._gc_parent = self._current.get()
            self._gc_start = time.perf_counter()
        else:
            end = time.perf_counter()
            generation = info["generation"]
            self._finish(next(self._ids), self._gc_parent, "gc",
                         f"gc.gen{generation}", self._gc_start, end,
                         generation)

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attribute: str, replacement) -> None:
        original = owner.__dict__[attribute]
        setattr(owner, attribute, replacement)
        self._undo.append(lambda: setattr(owner, attribute, original))

    def install(self) -> None:
        # modules by import path: ``repro.core.greedy_sc`` is also the
        # name of a function re-exported by ``repro.core``
        frames, router, worker, fastpath, greedy_module, auto, \
            pipeline_module = (importlib.import_module(name) for name in (
                "repro.cluster.frames", "repro.cluster.router",
                "repro.cluster.worker", "repro.core.fastpath",
                "repro.core.greedy_sc", "repro.engine.auto",
                "repro.pipeline",
            ))
        from repro.incremental.registry import ViewRegistry
        from repro.incremental.store import PostStore
        from repro.incremental.view import CoverView
        from repro.pipeline import DigestResult, DiversificationPipeline
        from repro.service.admission import AdmissionController
        from repro.service.cache import ResultCache
        from repro.service.coalescer import MicroBatcher, RequestCoalescer
        from repro.service.service import DiversificationService, \
            ServiceResponse

        def solver_layer(args) -> str:
            return "scan" if args[0] in SCAN_ALGORITHMS else "greedy_sc"

        hit = lambda result: result is not None  # noqa: E731
        sync_methods = [
            (frames, "_decode_body", "frames", "frames.decode", None),
            (router, "encode_frame", "frames", "frames.encode", len),
            (worker, "encode_frame", "frames", "frames.encode", len),
            (ServiceResponse, "to_dict", "wire", "wire.to_dict", None),
            (DigestResult, "to_dict", "wire", "wire.to_dict", None),
            (DiversificationService, "_solve_job", "service",
             "service.solve_job", None),
            (DiversificationService, "ingest", "service",
             "service.ingest", None),
            (AdmissionController, "admit", "admission",
             "admission.admit", None),
            (ResultCache, "get", "cache", "cache.get", hit),
            (ResultCache, "put", "cache", "cache.put", None),
            (ResultCache, "bump_epoch", "cache", "cache.bump_epoch", None),
            (ViewRegistry, "read", "view", "view.read", hit),
            (ViewRegistry, "seed", "view", "view.seed", None),
            (ViewRegistry, "apply_insert", "view", "view.apply", None),
            (ViewRegistry, "apply_expire", "view", "view.apply", None),
            (ViewRegistry, "advance", "view", "view.apply", None),
            (ViewRegistry, "commit", "view", "view.apply", None),
            (CoverView, "materialize", "view", "view.materialize", None),
            (PostStore, "materialize", "store", "store.materialize", None),
            (PostStore, "ingest_document", "store", "store.project", None),
            (PostStore, "expire", "store", "store.project", None),
            (DiversificationPipeline, "digest", "pipeline",
             "pipeline.digest", None),
            (pipeline_module, "solve", solver_layer, "solve", None),
            (router, "solve", solver_layer, "solve", None),
            (greedy_module, "build_setcover_family", "greedy_sc",
             "greedy_sc.family", lambda result: _pairs(result[0])),
            (fastpath, "build_family_encoded", "greedy_sc",
             "greedy_sc.family", lambda result: _pairs(result[0])),
            (greedy_module, "greedy_set_cover", "setcover",
             "setcover.greedy", None),
            (auto, "choose_engine", "engine", "engine.choose", None),
        ]
        for owner, attribute, layer, name, extra in sync_methods:
            self._patch(owner, attribute, self.wrap(
                layer, name, owner.__dict__[attribute], extra,
            ))
        for owner in (ServiceResponse, DigestResult):
            original = owner.__dict__["from_dict"].__func__
            self._patch(owner, "from_dict", classmethod(
                self.wrap("wire", "wire.from_dict", original)
            ))
        async_methods = [
            (router.ClusterRouter, "digest", "router", "router.digest"),
            (router.ClusterRouter, "ingest", "router", "router.ingest"),
            (worker.WorkerNode, "_serve_frame", "worker",
             "worker.serve_frame"),
            (DiversificationService, "digest", "service",
             "service.digest"),
            (RequestCoalescer, "submit", "coalescer", "coalescer.submit"),
            (MicroBatcher, "run", "coalescer", "coalescer.batch_run"),
        ]
        for owner, attribute, layer, name in async_methods:
            self._patch(owner, attribute, self.wrap_async(
                layer, name, owner.__dict__[attribute],
            ))
        gc.callbacks.append(self._on_gc)
        self._undo.append(lambda: gc.callbacks.remove(self._on_gc))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def write(self, path, intervals: List[Tuple[float, float, int]]) -> None:
        """Write every span as one JSON line, tagged with the index of
        the op whose interval holds its start (-1 outside every op)."""
        starts = [start for start, _, _ in intervals]
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in sorted(self.spans, key=lambda s: s.start):
                slot = bisect.bisect_right(starts, span.start) - 1
                op = -1
                if slot >= 0 and span.start <= intervals[slot][1]:
                    op = intervals[slot][2]
                out.write(json.dumps({
                    "id": span.sid, "parent": span.parent,
                    "layer": span.layer, "name": span.name,
                    "start": span.start, "end": span.end,
                    "thread": span.thread, "op": op, "extra": span.extra,
                }) + "\n")


def self_times(spans: Iterable[Span], begin: float,
               end: float) -> Dict[Tuple[str, str], float]:
    """Partition ``[begin, end]`` among the spans that overlap it.

    Each instant goes to the most recently started span still open (ties
    to the later span id, which is the inner one); instants outside every
    span go to ``UNATTRIBUTED``.  Keys are ``(layer, span name)``; the
    values sum to ``end - begin``.
    """
    events = []
    clipped = []
    for span in spans:
        lo, hi = max(span.start, begin), min(span.end, end)
        if hi <= lo:
            continue
        index = len(clipped)
        clipped.append(span)
        events.append((lo, 1, index))
        events.append((hi, 0, index))
    events.sort()
    totals: Dict[Tuple[str, str], float] = defaultdict(float)
    open_heap: List[Tuple[float, int, int]] = []
    closed = set()
    previous = begin

    def charge(until: float) -> None:
        while open_heap and open_heap[0][2] in closed:
            heapq.heappop(open_heap)
        if open_heap:
            span = clipped[open_heap[0][2]]
            key = (span.layer, span.name)
        else:
            key = UNATTRIBUTED
        totals[key] += until - previous

    for moment, kind, index in events:
        charge(moment)
        previous = moment
        if kind == 1:
            span = clipped[index]
            heapq.heappush(open_heap, (-span.start, -span.sid, index))
        else:
            closed.add(index)
    charge(end)
    return dict(totals)


def _spans_within(ordered: List[Span], starts: List[float], begin: float,
                  end: float) -> List[Span]:
    lo = bisect.bisect_left(starts, begin)
    hi = bisect.bisect_right(starts, end)
    return ordered[lo:hi]


def layer_metrics(tracer: Tracer, record,
                  slowdown: float) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced measured pass.

    Per digest unless the unit says otherwise; ``ms/doc`` metrics divide
    ingest-time work by documents ingested, ``ms/op`` by cache calls.
    Times are divided by ``slowdown``, the core slowdown measured over
    the pass, like the end-to-end times.
    """
    ordered = sorted(tracer.spans, key=lambda span: span.start)
    starts = [span.start for span in ordered]
    digests = record.digests
    n = max(1, len(digests))
    docs = max(1, record.ingested)

    by_key: Dict[Tuple[str, str], float] = defaultdict(float)
    wall = 0.0
    gen2_pause = 0.0
    wait = 0.0
    counts: Dict[str, float] = defaultdict(float)
    frame_bytes = 0
    for digest in digests:
        inside = _spans_within(ordered, starts, digest.start, digest.end)
        for key, seconds in self_times(
            inside, digest.start, digest.end
        ).items():
            by_key[key] += seconds
        wall += digest.end - digest.start
        batch_start = None
        for span in inside:
            counts[span.name] += 1
            if span.name == "cache.get" and span.extra:
                counts["cache.hits"] += 1
            elif span.name == "view.read" and span.extra:
                counts["view.hits"] += 1
            elif span.name == "frames.encode":
                frame_bytes += span.extra
            elif span.name == "greedy_sc.family":
                counts["pairs"] += span.extra
            elif span.name == "gc.gen2":
                gen2_pause += span.end - span.start
            elif span.name == "coalescer.batch_run":
                batch_start = span.start
            elif span.name == "service.solve_job" \
                    and batch_start is not None:
                wait += span.start - batch_start
                batch_start = None

    ingest_keys: Dict[Tuple[str, str], float] = defaultdict(float)
    for begin, end, _ in record.ingest_spans:
        inside = _spans_within(ordered, starts, begin, end)
        for key, seconds in self_times(inside, begin, end).items():
            ingest_keys[key] += seconds
        for span in inside:
            if span.name.startswith("cache."):
                counts["ingest." + span.name] += 1

    def layer_ms(layer: str, names: Optional[Tuple[str, ...]] = None,
                 source=by_key) -> float:
        return 1000.0 * sum(
            seconds for (lay, name), seconds in source.items()
            if lay == layer and (names is None or name in names)
        )

    cache_ops = sum(counts[name] + counts["ingest." + name] for name in (
        "cache.get", "cache.put", "cache.bump_epoch"))
    cache_ms = layer_ms("cache") + layer_ms("cache", source=ingest_keys)
    unattributed_ms = 1000.0 * by_key.get(UNATTRIBUTED, 0.0)
    metrics: Dict[str, Tuple[float, str]] = {
        "setcover.greedy_ms": (layer_ms("setcover") / n, "ms"),
        "greedy_sc.family_ms": (
            layer_ms("greedy_sc", ("greedy_sc.family",)) / n, "ms"),
        "greedy_sc.self_ms": (layer_ms("greedy_sc") / n, "ms"),
        "greedy_sc.pairs": (
            counts["pairs"] / max(1, counts["greedy_sc.family"]),
            "pairs/solve"),
        "engine.probe_ms": (layer_ms("engine") / n, "ms"),
        "scan.ms": (layer_ms("scan") / n, "ms"),
        "pipeline.self_ms": (layer_ms("pipeline") / n, "ms"),
        "service.self_ms": (layer_ms("service") / n, "ms"),
        "admission.ms": (layer_ms("admission") / n, "ms"),
        "coalescer.wait_ms": (1000.0 * wait / n, "ms"),
        "coalescer.self_ms": (layer_ms("coalescer") / n, "ms"),
        "cache.hit_ratio": (
            counts["cache.hits"] / max(1, counts["cache.get"]), "ratio"),
        "cache.ms": (cache_ms / max(1, cache_ops), "ms/op"),
        "cache.self_ms": (layer_ms("cache") / n, "ms"),
        "view.read_share": (counts["view.hits"] / n, "ratio"),
        "view.self_ms": (layer_ms("view") / n, "ms"),
        "view.apply_ms": (
            layer_ms("view", ("view.apply",), ingest_keys) / docs,
            "ms/doc"),
        "store.materialize_ms": (
            layer_ms("store", ("store.materialize",)) / n, "ms"),
        "store.rebuild_ratio": (
            counts["store.materialize"]
            / max(1, counts["view.materialize"]), "ratio"),
        "store.self_ms": (layer_ms("store") / n, "ms"),
        "store.project_ms": (
            layer_ms("store", ("store.project",), ingest_keys) / docs,
            "ms/doc"),
        "wire.to_dict_ms": (
            layer_ms("wire", ("wire.to_dict",)) / n, "ms"),
        "wire.from_dict_ms": (
            layer_ms("wire", ("wire.from_dict",)) / n, "ms"),
        "frames.encode_ms": (
            layer_ms("frames", ("frames.encode",)) / n, "ms"),
        "frames.decode_ms": (
            layer_ms("frames", ("frames.decode",)) / n, "ms"),
        "frames.bytes_per_digest": (frame_bytes / n, "bytes"),
        "router.self_ms": (layer_ms("router") / n, "ms"),
        "worker.self_ms": (layer_ms("worker") / n, "ms"),
        "gc.gen2_pause_ms": (1000.0 * gen2_pause / n, "ms"),
        "gc.gen2_count": (float(sum(
            1 for span in _spans_within(
                ordered, starts, record.began, record.ended)
            if span.name == "gc.gen2")), "count"),
        "gc.self_ms": (layer_ms("gc") / n, "ms"),
        "solves_per_digest": (counts["solve"] / n, "ratio"),
        "unattributed_ms": (unattributed_ms / n, "ms"),
        "digest_mean_ms": (1000.0 * wall / n, "ms"),
        "attributed_share": (
            1.0 - unattributed_ms / max(1e-12, 1000.0 * wall), "ratio"),
    }
    return {name: (value / slowdown if unit.startswith("ms") else value,
                   unit)
            for name, (value, unit) in metrics.items()}


#: Each layer's per-digest self time as a sum of its metrics: these plus
#: ``unattributed_ms`` add up to ``digest_mean_ms``.
SELF_TIME_METRICS: Dict[str, Tuple[str, ...]] = {
    "router": ("router.self_ms",),
    "frames": ("frames.encode_ms", "frames.decode_ms"),
    "wire": ("wire.to_dict_ms", "wire.from_dict_ms"),
    "worker": ("worker.self_ms",),
    "service": ("service.self_ms",),
    "admission": ("admission.ms",),
    "coalescer": ("coalescer.self_ms",),
    "cache": ("cache.self_ms",),
    "view": ("view.self_ms",),
    "store": ("store.self_ms",),
    "pipeline": ("pipeline.self_ms",),
    "greedy_sc": ("greedy_sc.self_ms",),
    "setcover": ("setcover.greedy_ms",),
    "scan": ("scan.ms",),
    "engine": ("engine.probe_ms",),
    "gc": ("gc.self_ms",),
}
