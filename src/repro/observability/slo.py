"""Per-tenant SLO monitoring: latency quantiles, error budgets, burn rates.

The serving tier's RED counters (PR 2/4) aggregate across everyone; an
operator asking *"is tenant acme within its objective right now?"* needs
per-(tenant, algorithm) accounting over a sliding window.  This module
keeps exactly that — raw ``(timestamp, latency, status)`` samples in a
bounded deque per key — and derives the standard SRE views on demand:

* **latency quantiles** — p50/p95/p99 over the slow window, computed by
  nearest-rank on the retained samples (exact for the windows we keep,
  no sketch error to reason about at this scale);
* **error budget** — with availability objective ``objective`` (e.g.
  0.99), the budget is the ``1 - objective`` failure allowance; shed and
  error responses spend it, ok/degraded responses do not (a degraded
  digest is still a served, valid cover — it spends the *latency*
  budget, not the availability one, and is reported separately);
* **multi-window burn rate** — ``error_rate / (1 - objective)`` over a
  fast and a slow window.  Burn 1.0 means "spending exactly the
  allowance"; the classic page condition is a high burn on *both*
  windows (fast catches the spike, slow proves it is not a blip).

The monitor is plain synchronous state behind a lock: the service calls
:meth:`record` on every response, tests and the ``introspect()``
endpoint call :meth:`snapshot`.  It is always-on service state (like the
request counters), deliberately *not* behind the observability facade —
SLO accounting is a service feature, not a debug instrument; its cost is
one deque append per request.
"""

from __future__ import annotations

import threading
import time as _time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from .collector import escape_label_value

__all__ = ["SLOMonitor", "quantile"]

# statuses that spend the availability error budget
FAILURE_STATUSES = frozenset({"shed", "error"})


def quantile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank quantile of an already-sorted, non-empty list."""
    if not sorted_values:
        raise ValueError("quantile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[rank]


class _Series:
    """Samples for one (tenant, algorithm) key."""

    __slots__ = ("samples", "total", "failures")

    def __init__(self, max_samples: int):
        # (timestamp, latency_s, status, cached)
        self.samples: Deque[Tuple[float, float, str, bool]] = deque(
            maxlen=max_samples
        )
        self.total = 0      # lifetime, survives window trims
        self.failures = 0


class SLOMonitor:
    """Sliding-window SLO accounting per (tenant, algorithm).

    Parameters
    ----------
    objective:
        Availability objective in (0, 1); 0.99 allows a 1% failure rate.
    windows:
        ``(fast, slow)`` burn-rate windows in clock seconds.  Latency
        quantiles and budget use the slow window.
    max_samples:
        Retained samples per key — bounds memory under sustained load;
        old samples age out by count here and by time at snapshot.
    clock:
        Injectable monotonic time source so tests pin the windows.
    """

    def __init__(
        self,
        *,
        objective: float = 0.99,
        windows: Tuple[float, float] = (300.0, 3600.0),
        max_samples: int = 4096,
        clock: Callable[[], float] = _time.monotonic,
    ):
        if not 0.0 < objective < 1.0:
            raise ValueError(
                f"objective must be in (0, 1), got {objective}"
            )
        fast, slow = windows
        if not 0 < fast <= slow:
            raise ValueError(
                f"windows must satisfy 0 < fast <= slow, got {windows}"
            )
        if max_samples < 1:
            raise ValueError(
                f"max_samples must be >= 1, got {max_samples}"
            )
        self.objective = objective
        self.windows = (float(fast), float(slow))
        self.max_samples = max_samples
        self._clock = clock
        self._lock = threading.Lock()
        self._series: Dict[Tuple[str, str], _Series] = {}

    # -- feeding -----------------------------------------------------------

    def record(
        self,
        tenant: str,
        algorithm: str,
        *,
        latency_s: float,
        status: str,
        cached: bool = False,
    ) -> None:
        """Account one response.  Called on every serve/hit/degrade/shed."""
        now = self._clock()
        key = (tenant, algorithm)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _Series(self.max_samples)
            series.samples.append((now, latency_s, status, cached))
            series.total += 1
            if status in FAILURE_STATUSES:
                series.failures += 1

    # -- views -------------------------------------------------------------

    def _window_stats(
        self,
        samples: List[Tuple[float, float, str, bool]],
        now: float,
        window: float,
    ) -> Dict[str, Any]:
        recent = [s for s in samples if now - s[0] <= window]
        requests = len(recent)
        errors = sum(1 for s in recent if s[2] in FAILURE_STATUSES)
        error_rate = errors / requests if requests else 0.0
        return {
            "window_s": window,
            "requests": requests,
            "errors": errors,
            "error_rate": error_rate,
            "burn_rate": error_rate / (1.0 - self.objective),
        }

    def snapshot(self, now: Optional[float] = None) -> List[Dict[str, Any]]:
        """Every (tenant, algorithm) series as a JSON-safe record.

        Sorted by (tenant, algorithm) so exports are deterministic.
        """
        if now is None:
            now = self._clock()
        fast, slow = self.windows
        with self._lock:
            items = sorted(
                (key, list(series.samples), series.total, series.failures)
                for key, series in self._series.items()
            )
        out: List[Dict[str, Any]] = []
        for (tenant, algorithm), samples, total, failures in items:
            in_slow = [s for s in samples if now - s[0] <= slow]
            statuses: Dict[str, int] = {}
            for _, _, status, _ in in_slow:
                statuses[status] = statuses.get(status, 0) + 1
            served = sorted(
                lat for _, lat, status, _ in in_slow
                if status not in FAILURE_STATUSES
            )
            latency = {
                "count": len(served),
                "p50": quantile(served, 0.50) if served else None,
                "p95": quantile(served, 0.95) if served else None,
                "p99": quantile(served, 0.99) if served else None,
            }
            fast_stats = self._window_stats(samples, now, fast)
            slow_stats = self._window_stats(samples, now, slow)
            out.append({
                "tenant": tenant,
                "algorithm": algorithm,
                "objective": self.objective,
                "lifetime": {"requests": total, "failures": failures},
                "statuses": statuses,
                "cache_hits": sum(1 for s in in_slow if s[3]),
                "latency": latency,
                "burn": {"fast": fast_stats, "slow": slow_stats},
                "error_budget_remaining": max(
                    0.0, 1.0 - slow_stats["burn_rate"]
                ),
            })
        return out

    def max_burn_rates(
        self, now: Optional[float] = None
    ) -> Tuple[float, float]:
        """The largest fast- and slow-window burn rate over every
        series (0.0 without requests) — what :meth:`snapshot` reports,
        maxed, from one pass over the samples: no quantiles, no sort."""
        if now is None:
            now = self._clock()
        fast, slow = self.windows
        budget = 1.0 - self.objective
        with self._lock:
            series = [list(s.samples) for s in self._series.values()]
        max_fast = max_slow = 0.0
        for samples in series:
            fast_requests = fast_errors = slow_requests = slow_errors = 0
            for stamp, _, status, _ in samples:
                age = now - stamp
                if age <= slow:
                    failed = status in FAILURE_STATUSES
                    slow_requests += 1
                    slow_errors += failed
                    if age <= fast:  # fast <= slow
                        fast_requests += 1
                        fast_errors += failed
            if fast_requests:
                max_fast = max(
                    max_fast, fast_errors / fast_requests / budget
                )
            if slow_requests:
                max_slow = max(
                    max_slow, slow_errors / slow_requests / budget
                )
        return max_fast, max_slow

    def to_prometheus(self, now: Optional[float] = None) -> str:
        """The snapshot in Prometheus text exposition format 0.0.4.

        Labelled series, e.g.::

            service_slo_latency_seconds{tenant="acme",algorithm="scan",quantile="0.5"} 0.01
            service_slo_burn_rate{tenant="acme",algorithm="scan",window="fast"} 0.0
        """
        lines: List[str] = []

        def emit(metric: str, labels: Dict[str, str], value: Any) -> None:
            if value is None:
                return
            label_text = ",".join(
                f'{k}="{escape_label_value(v)}"' for k, v in labels.items()
            )
            lines.append(f"{metric}{{{label_text}}} {float(value)}")

        lines.append(
            "# HELP service_slo_requests_total requests per tenant/algorithm"
        )
        lines.append("# TYPE service_slo_requests_total counter")
        snapshot = self.snapshot(now)
        for record in snapshot:
            base = {
                "tenant": record["tenant"],
                "algorithm": record["algorithm"],
            }
            emit("service_slo_requests_total", base,
                 record["lifetime"]["requests"])
            emit("service_slo_failures_total", base,
                 record["lifetime"]["failures"])
            for q in ("p50", "p95", "p99"):
                emit(
                    "service_slo_latency_seconds",
                    dict(base, quantile=f"0.{q[1:]}"),
                    record["latency"][q],
                )
            for window in ("fast", "slow"):
                emit("service_slo_burn_rate", dict(base, window=window),
                     record["burn"][window]["burn_rate"])
            emit("service_slo_error_budget_remaining", base,
                 record["error_budget_remaining"])
        return "\n".join(lines) + "\n"
