"""Continuous quality auditing of served digests.

Latency SLOs say nothing about *correctness*: a serving tier can be
fast, available — and quietly serving digests that no longer λ-cover
their corpus (a regression in a solver, a scatter merge gone wrong, a
cache serving across a bug).  The :class:`DigestAuditor` closes that
gap with the paper's own definitions:

* **λ-coverage re-verification** (Definition 2) — every sampled digest
  is re-checked with the existing verifier
  (:func:`repro.core.coverage.is_cover`) against the embedded instance,
  i.e. against exactly the corpus epoch it was served from;
* **approximation ratio vs OPT** (Lemma 2 territory) — on instances
  small enough for the end-pattern DP, ``|digest| / |OPT|`` is computed
  with :func:`repro.core.opt.opt_size` and published, so a drifting
  ratio is visible long before it is a bug report.

Operationally the auditor is a *sampling* sidecar: the service offers it
every served digest, it keeps a seeded random fraction in a bounded
queue, and audits run off the request path — either from the background
:meth:`run` loop or by an explicit :meth:`audit_pending` drain (tests,
cron).  Findings are published three ways: facade metrics
(``audit.samples`` / ``audit.coverage_violations`` /
``audit.approx_ratio``), structured events (WARNING on violation, with
trace correlation back to the serving request), and the
:meth:`snapshot` the service's ``introspect()`` embeds.
"""

from __future__ import annotations

import asyncio
import logging
import random
import threading
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from ..core.coverage import uncovered_pairs
from ..core.opt import opt_size
from ..observability import facade as _obs
from ..observability import structlog
from ..pipeline import DigestResult

__all__ = ["AuditFinding", "DigestAuditor"]


class AuditFinding(dict):
    """One audit outcome — a plain dict with attribute sugar."""

    __getattr__ = dict.__getitem__


class DigestAuditor:
    """Samples served digests and re-verifies them off the request path.

    Parameters
    ----------
    sample_rate:
        Fraction of offered digests to audit, in [0, 1].  0 disables
        sampling entirely (every :meth:`observe` is one RNG draw saved —
        it returns immediately).
    opt_max_posts:
        Upper instance size (posts) for the exact-OPT ratio check; the
        DP is exponential in the label count, so only small instances
        get a ratio.  Coverage is verified regardless of size.
    max_queue:
        Bound on digests awaiting audit; on overflow the oldest pending
        sample is dropped (and counted) — auditing lags, it never grows
        without bound.
    seed:
        Seed for the sampling RNG, so tests and replays are exact.
    """

    def __init__(
        self,
        *,
        sample_rate: float = 1.0,
        opt_max_posts: int = 12,
        max_queue: int = 256,
        seed: int = 0,
    ):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in [0, 1], got {sample_rate}"
            )
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.sample_rate = sample_rate
        self.opt_max_posts = opt_max_posts
        self.max_queue = max_queue
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._queue: Deque[Dict[str, Any]] = deque()
        self._task: Optional["asyncio.Task"] = None
        # lifetime stats
        self.offered = 0
        self.sampled = 0
        self.dropped = 0
        self.audited = 0
        self.coverage_violations = 0
        self.audited_by_source: Dict[str, int] = {}
        self.violations_by_source: Dict[str, int] = {}
        self.ratios: List[float] = []

    # -- intake (request path: cheap) --------------------------------------

    def observe(
        self,
        result: Optional[DigestResult],
        *,
        tenant: str = "",
        algorithm: str = "",
        epoch: int = 0,
        source: str = "batch",
    ) -> bool:
        """Offer one served digest; returns True when it was sampled.

        ``source`` tags where the digest came from (``"batch"`` solver
        run, ``"view"`` maintained cover, ``"cache"`` hit) so audit
        findings distinguish an incremental-maintenance regression from
        a solver one."""
        if result is None:
            return False
        self.offered += 1
        if self.sample_rate <= 0.0:
            return False
        if self.sample_rate < 1.0 and \
                self._rng.random() >= self.sample_rate:
            return False
        item = {
            "result": result,
            "tenant": tenant,
            "algorithm": algorithm,
            "epoch": epoch,
            "source": source,
            "trace_id": result.trace_id,
        }
        with self._lock:
            self._queue.append(item)
            if len(self._queue) > self.max_queue:
                self._queue.popleft()
                self.dropped += 1
        self.sampled += 1
        _obs.count("audit.samples")
        return True

    # -- auditing (off the request path) -----------------------------------

    def _audit_one(self, item: Dict[str, Any]) -> AuditFinding:
        result: DigestResult = item["result"]
        instance = result.instance
        missing = uncovered_pairs(instance, result.solution.posts)
        covered = not missing
        ratio: Optional[float] = None
        opt: Optional[int] = None
        if (
            covered
            and len(instance.posts) <= self.opt_max_posts
            and result.size > 0
        ):
            opt = opt_size(instance)
            if opt > 0:
                ratio = result.size / opt
        source = item.get("source", "batch")
        finding = AuditFinding(
            tenant=item["tenant"],
            algorithm=item["algorithm"],
            epoch=item["epoch"],
            source=source,
            trace_id=item["trace_id"],
            covered=covered,
            uncovered_pairs=len(missing),
            size=result.size,
            opt=opt,
            approx_ratio=ratio,
        )
        self.audited += 1
        self.audited_by_source[source] = \
            self.audited_by_source.get(source, 0) + 1
        if not covered:
            self.coverage_violations += 1
            self.violations_by_source[source] = \
                self.violations_by_source.get(source, 0) + 1
            _obs.count("audit.coverage_violations")
            structlog.emit(
                "audit.coverage_violation",
                level=logging.WARNING,
                trace_id=item["trace_id"],
                tenant=item["tenant"],
                epoch=item["epoch"],
                source=source,
                algorithm=item["algorithm"],
                uncovered_pairs=len(missing),
                sample=[list(pair) for pair in missing[:5]],
            )
        if ratio is not None:
            self.ratios.append(ratio)
            _obs.observe("audit.approx_ratio", ratio)
        _obs.count("audit.audited")
        return finding

    def audit_pending(self) -> List[AuditFinding]:
        """Drain the queue and audit everything in it, synchronously."""
        with self._lock:
            items = list(self._queue)
            self._queue.clear()
        return [self._audit_one(item) for item in items]

    # -- background loop ---------------------------------------------------

    async def run(self, interval: float = 0.05) -> None:
        """Audit forever: drain, sleep ``interval``, repeat.

        Runs until cancelled; the drain itself is synchronous and small
        (bounded by ``max_queue``), so the loop stays cooperative.
        """
        try:
            while True:
                self.audit_pending()
                await asyncio.sleep(interval)
        except asyncio.CancelledError:
            self.audit_pending()  # final drain on clean shutdown
            raise

    def start(self, interval: float = 0.05) -> "asyncio.Task":
        """Spawn :meth:`run` on the running loop (idempotent)."""
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(
                self.run(interval)
            )
        return self._task

    async def stop(self) -> None:
        """Cancel the background loop and await its final drain."""
        if self._task is None:
            return
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._task = None

    # -- introspection -----------------------------------------------------

    def pending(self) -> int:
        with self._lock:
            return len(self._queue)

    def pass_rate(self) -> float:
        """Audited digests that verified, as a fraction (1.0 before any)."""
        if not self.audited:
            return 1.0
        return (self.audited - self.coverage_violations) / self.audited

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe auditor stats for ``service.introspect()``."""
        ratios = self.ratios
        return {
            "sample_rate": self.sample_rate,
            "offered": self.offered,
            "sampled": self.sampled,
            "dropped": self.dropped,
            "pending": self.pending(),
            "audited": self.audited,
            "audited_by_source": dict(self.audited_by_source),
            "coverage_violations": self.coverage_violations,
            "violations_by_source": dict(self.violations_by_source),
            "pass_rate": self.pass_rate(),
            "approx_ratio": {
                "count": len(ratios),
                "mean": sum(ratios) / len(ratios) if ratios else None,
                "max": max(ratios) if ratios else None,
            },
            "running": self._task is not None and not self._task.done(),
        }
