"""The metrics registry: counters, gauges, histograms.

The unit of cost in this codebase is not wall-clock alone.  Succinct
coverage-oracle accounting (see PAPERS.md) argues for counting the *work
units* a solver performs — candidate pairs enumerated, residual-set
updates, posting-list window advances — alongside its elapsed time, so a
perf regression is attributable to an algorithmic change rather than to
machine noise.  This module provides the primitive instruments; the hot
paths publish into them through :mod:`repro.observability.facade`, which
costs nothing when observability is disabled.

Everything here is deliberately dependency-free and deterministic: the
registry takes an injectable ``clock`` (the supervisor's ``clock=``
pattern) so tests can pin timings, and instruments are plain attribute
holders — no background threads.

Thread-safety: the solvers are single-threaded per call, but the serving
layer (:mod:`repro.service`) publishes into one shared registry from
concurrent executor threads, so every mutation is guarded.  Instrument
updates take a per-instrument lock (CPython's ``+=`` on an attribute is
*not* atomic — it compiles to a load/add/store triple that can interleave
under preemption), and the registry's create path takes a registry lock
so two threads racing to create the same name always converge on one
instrument; finding an existing one is a plain ``dict.get`` (atomic
under the GIL), since the table only ever gains entries under that
lock.  Reads of a single counter/gauge value stay lock-free (an
attribute load is atomic); ``snapshot``/``counters`` lock only the
instrument table iteration, so they are consistent per-instrument, not
across instruments — fine for monitoring, which tolerates a tick of skew.
The hammer test (``tests/observability/test_threadsafety.py``) pins the
exact-total guarantees.
"""

from __future__ import annotations

import threading
import time as _time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

# Geometric-ish latency buckets (seconds): generous coverage from
# microseconds to minutes without per-metric tuning.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0,
)


class Counter:
    """A monotone counter; ``inc`` with a negative amount is rejected."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        with self._lock:
            self.value += amount


class Gauge:
    """A point-in-time value (queue depth, rung index, buffer size)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount


class Histogram:
    """Fixed-bucket cumulative histogram with count/sum/min/max.

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket catches the
    rest, mirroring the Prometheus histogram model so the text exporter
    is a straight transcription.
    """

    __slots__ = ("name", "buckets", "bucket_counts", "count", "total",
                 "min", "max", "_lock")

    def __init__(self, name: str,
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        if list(buckets) != sorted(buckets):
            raise ValueError(f"histogram {name!r} buckets must be sorted")
        self.name = name
        self.buckets: Tuple[float, ...] = tuple(buckets)
        self.bucket_counts: List[int] = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            for idx, bound in enumerate(self.buckets):
                if value <= bound:
                    self.bucket_counts[idx] += 1
                    return
            self.bucket_counts[-1] += 1

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None


class MetricsRegistry:
    """Name-keyed instrument store with an injectable clock.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create; asking for
    an existing name with a different instrument kind raises, which
    catches name collisions at the instrumentation site rather than at
    export time.
    """

    def __init__(self, clock: Callable[[], float] = _time.perf_counter):
        self.clock = clock
        self._instruments: Dict[str, object] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, kind, *args):
        instrument = self._instruments.get(name)
        if isinstance(instrument, kind):
            # the common case: an existing instrument, no lock taken
            return instrument
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = kind(name, *args)
                self._instruments[name] = instrument
            elif not isinstance(instrument, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, not {kind.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get(name, Histogram, buckets)

    # -- introspection ----------------------------------------------------

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    def counters(self) -> Dict[str, int]:
        """Counter values only — the work-unit view the benches record."""
        with self._lock:
            items = sorted(self._instruments.items())
        return {
            name: instrument.value
            for name, instrument in items
            if isinstance(instrument, Counter)
        }

    def snapshot(self) -> Dict[str, dict]:
        """Every instrument as a JSON-safe dict, keyed by name."""
        with self._lock:
            items = sorted(self._instruments.items())
        out: Dict[str, dict] = {}
        for name, instrument in items:
            if isinstance(instrument, Counter):
                out[name] = {"type": "counter", "value": instrument.value}
            elif isinstance(instrument, Gauge):
                out[name] = {"type": "gauge", "value": instrument.value}
            else:
                hist = instrument
                with hist._lock:
                    out[name] = {
                        "type": "histogram",
                        "count": hist.count,
                        "sum": hist.total,
                        "min": hist.min,
                        "max": hist.max,
                        "mean": (
                            hist.total / hist.count if hist.count else None
                        ),
                        "buckets": [
                            {"le": bound, "count": count}
                            for bound, count in zip(
                                hist.buckets, hist.bucket_counts
                            )
                        ] + [
                            {"le": "+Inf", "count": hist.bucket_counts[-1]}
                        ],
                    }
        return out
