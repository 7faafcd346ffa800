"""Admission control: token-bucket rate limiting + queue watermarks.

A serving tier that accepts every request dies of the queue it builds.
This module implements the two standard guards, composed by
:class:`AdmissionController` into a single three-way decision:

* **ADMIT** — tokens available, queue shallow: serve at full quality.
* **DEGRADE** — the pending-queue depth crossed the *soft* watermark:
  serve, but step the request down the configured degradation ladder
  (GreedySC -> Scan+ -> Scan), trading digest size for bounded latency —
  the same quality-for-latency trade the resilience ladders make, applied
  *before* the solver runs instead of after it overruns.
* **SHED** — the token bucket is empty or the queue crossed the *hard*
  watermark: refuse outright.  Refusing early is what keeps the p99 of
  admitted requests bounded.

The token bucket is continuous-refill against an injectable clock:
``rate`` tokens per second accrue up to ``burst``, and each admitted
request spends one.  Both knobs and the watermarks live in
:class:`repro.service.service.ServiceConfig`.

Everything here is lock-guarded: the service calls ``admit`` from the
event loop, but tests (and future multi-loop deployments) hammer it from
threads.
"""

from __future__ import annotations

import threading
import time as _time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..observability import facade as _obs

__all__ = [
    "ADMIT",
    "DEGRADE",
    "SHED",
    "AdmissionDecision",
    "AdmissionController",
    "TokenBucket",
]

ADMIT = "admit"
DEGRADE = "degrade"
SHED = "shed"


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check.

    ``degrade_steps`` tells the service how many ladder rungs to step
    down (0 for a clean admit); ``reason`` is a human-readable account
    that ends up on shed/degraded responses.
    """

    action: str
    degrade_steps: int = 0
    reason: str = ""


class TokenBucket:
    """Continuous-refill token bucket.

    Parameters
    ----------
    rate:
        Tokens added per clock second.  Must be positive.
    burst:
        Bucket capacity — the largest instantaneous request burst that
        can be absorbed.  Defaults to ``rate``.
    clock:
        Injectable monotonic time source.
    """

    def __init__(
        self,
        rate: float,
        burst: Optional[float] = None,
        clock: Callable[[], float] = _time.monotonic,
    ):
        # `not >` refuses NaN too, whose bucket sheds every request
        if not rate > 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = float(rate)
        self.burst = float(burst if burst is not None else rate)
        if not self.burst > 0:
            raise ValueError(f"burst must be positive, got {burst}")
        self._clock = clock
        self._tokens = self.burst
        self._updated = clock()
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        elapsed = now - self._updated
        if elapsed > 0:
            self._tokens = min(
                self.burst, self._tokens + elapsed * self.rate
            )
        self._updated = now

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Spend ``tokens`` if available; never blocks."""
        with self._lock:
            self._refill(self._clock())
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            return False

    def available(self) -> float:
        """Current token balance (after refill)."""
        with self._lock:
            self._refill(self._clock())
            return self._tokens


class AdmissionController:
    """Compose the token bucket and queue watermarks into one decision.

    Parameters
    ----------
    bucket:
        Optional :class:`TokenBucket`; ``None`` disables rate limiting.
    soft_watermark:
        Pending-queue depth at which requests start degrading.  Each
        additional ``soft_watermark`` of depth degrades one rung further,
        so pressure maps progressively onto the ladder.
    hard_watermark:
        Pending-queue depth at which requests are shed.  Must be
        >= ``soft_watermark``.
    """

    def __init__(
        self,
        bucket: Optional[TokenBucket] = None,
        soft_watermark: int = 32,
        hard_watermark: int = 128,
    ):
        if soft_watermark < 1:
            raise ValueError(
                f"soft_watermark must be >= 1, got {soft_watermark}"
            )
        if hard_watermark < soft_watermark:
            raise ValueError(
                f"hard_watermark ({hard_watermark}) must be >= "
                f"soft_watermark ({soft_watermark})"
            )
        self.bucket = bucket
        self.soft_watermark = soft_watermark
        self.hard_watermark = hard_watermark
        self._lock = threading.Lock()
        self.decisions: Dict[str, int] = {ADMIT: 0, DEGRADE: 0, SHED: 0}

    def _record(self, decision: AdmissionDecision) -> AdmissionDecision:
        with self._lock:
            self.decisions[decision.action] += 1
        _obs.count(f"service.admission.{decision.action}")
        return decision

    def admit(self, queue_depth: int) -> AdmissionDecision:
        """Decide the fate of one incoming request."""
        if queue_depth >= self.hard_watermark:
            return self._record(AdmissionDecision(
                action=SHED,
                reason=(
                    f"queue depth {queue_depth} at hard watermark "
                    f"{self.hard_watermark}"
                ),
            ))
        if self.bucket is not None and not self.bucket.try_acquire():
            return self._record(AdmissionDecision(
                action=SHED,
                reason="token bucket empty",
            ))
        if queue_depth >= self.soft_watermark:
            steps = queue_depth // self.soft_watermark
            return self._record(AdmissionDecision(
                action=DEGRADE,
                degrade_steps=steps,
                reason=(
                    f"queue depth {queue_depth} over soft watermark "
                    f"{self.soft_watermark}"
                ),
            ))
        return self._record(AdmissionDecision(action=ADMIT))
