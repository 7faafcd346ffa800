"""Observability: metrics, tracing, exporters, bench trajectories.

The measurement substrate for the perf roadmap.  Four pieces:

* :mod:`~repro.observability.metrics` — counters, gauges and histograms
  in a :class:`MetricsRegistry` with an injectable clock;
* :mod:`~repro.observability.tracing` — span-based :class:`Tracer`;
* :mod:`~repro.observability.facade` — the zero-overhead-when-disabled
  switch the instrumented hot paths call through (off by default;
  ``enable()`` / ``session()`` to turn on);
* :mod:`~repro.observability.exporters` / ``bench`` — JSON and
  Prometheus text output, and the versioned ``BENCH_*.json`` artifacts
  the benchmark suite emits.

Typical use::

    from repro import observability
    from repro.core.scan import scan

    with observability.session() as obs:
        solution = scan(instance)
    print(obs.registry.counters())   # {'scan.picks': ..., ...}

See ``docs/observability.md`` for the metric catalogue and artifact
schema.
"""

from .anomaly import Alert, AnomalyEngine, RULES
from .bench import (
    BENCH_SCHEMA,
    BENCH_SCHEMA_VERSION,
    BenchSchemaError,
    BenchTrajectory,
    validate_bench,
)
from . import structlog
from .collector import (
    Collector,
    FleetStore,
    ScrapeLedger,
    escape_label_value,
    merge_histograms,
    quantile_from_buckets,
)
from .exporters import (
    PromFormatError,
    parse_prometheus,
    to_json,
    to_prometheus,
    trace_to_json,
    write_json,
)
from .facade import (
    Observability,
    activate,
    active,
    clock,
    count,
    current_context,
    disable,
    enable,
    enabled,
    observe,
    session,
    set_gauge,
    span,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .profiling import Profiler
from .slo import SLOMonitor
from .traces import (
    SamplingPolicy,
    TraceBuffer,
    TracePipeline,
    TraceSink,
    head_sample,
)
from .tracing import Span, TraceContext, Tracer, mint_trace_id

__all__ = [
    "Alert",
    "AnomalyEngine",
    "RULES",
    "Collector",
    "FleetStore",
    "ScrapeLedger",
    "escape_label_value",
    "merge_histograms",
    "quantile_from_buckets",
    "Profiler",
    "SamplingPolicy",
    "TraceBuffer",
    "TracePipeline",
    "TraceSink",
    "head_sample",
    "BENCH_SCHEMA",
    "BENCH_SCHEMA_VERSION",
    "BenchSchemaError",
    "BenchTrajectory",
    "validate_bench",
    "PromFormatError",
    "parse_prometheus",
    "to_json",
    "to_prometheus",
    "trace_to_json",
    "write_json",
    "Observability",
    "activate",
    "active",
    "clock",
    "count",
    "current_context",
    "disable",
    "enable",
    "enabled",
    "observe",
    "session",
    "set_gauge",
    "span",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SLOMonitor",
    "Span",
    "TraceContext",
    "Tracer",
    "mint_trace_id",
    "structlog",
]
