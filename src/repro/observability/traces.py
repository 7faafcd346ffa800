"""Durable trace pipeline: sampling, bounded buffering, JSONL sink.

PR 5 gave every response a trace_id and PR 9's router re-parents worker
spans into the request trace via :meth:`Tracer.adopt` — and then the
assembled tree evaporates when the process exits.  This module is the
persistence half:

* :class:`SamplingPolicy` — head-based probabilistic sampling (a
  deterministic hash of the trace_id, so every component of a request
  makes the same decision without coordination) plus *always-keep*
  overrides for error/degraded/shed responses and responses slower
  than a threshold;
* :class:`TraceBuffer` — a bounded in-memory ring of the most recent
  kept traces (the ``introspect()``-visible working set), with an
  honest ``dropped`` counter when it overflows;
* :class:`TraceSink` — a rotating JSONL writer (size-bounded segments,
  bounded segment count) that persists assembled span trees;
* :class:`TracePipeline` — the glue the router calls once per request:
  decide, assemble, buffer, persist.

A request that loses the head-sampling coin flip records no spans at
all (the cheap 90 % at 10 % sampling); if it then turns out to be an
error or slow, the always-keep rule still persists a *skeleton* record
(trace_id, status, latency, no tree) so the incident is in the log
even though its spans were never collected — the honest limit of
head-based sampling, documented in ``docs/observability.md``.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, FrozenSet, List, Optional

__all__ = [
    "SamplingPolicy",
    "TraceBuffer",
    "TracePipeline",
    "TraceSink",
    "head_sample",
]

# statuses a policy keeps regardless of the probabilistic decision
DEFAULT_KEEP_STATUSES: FrozenSet[str] = frozenset(
    {"error", "degraded", "shed"}
)

# trace ids are 32 random hex chars; 8 of them give a uniform 32-bit
# draw, plenty of resolution for sampling rates down to ~1e-9
_HASH_SPAN = float(0x100000000)


def head_sample(trace_id: str, rate: float) -> bool:
    """Deterministic head-sampling decision for ``trace_id``.

    Every participant hashing the same trace_id reaches the same
    verdict, which is what lets the service skip span creation
    entirely for unsampled requests without asking anyone.
    """
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    try:
        draw = int(trace_id[:8], 16) / _HASH_SPAN
    except (ValueError, TypeError):
        return True
    return draw < rate


@dataclass(frozen=True)
class SamplingPolicy:
    """Head-based probabilistic sampling with always-keep overrides."""

    rate: float = 0.1
    slow_threshold_s: Optional[float] = None
    keep_statuses: FrozenSet[str] = field(
        default_factory=lambda: DEFAULT_KEEP_STATUSES
    )

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(
                f"rate must be in [0, 1], got {self.rate}"
            )
        if self.slow_threshold_s is not None \
                and self.slow_threshold_s <= 0:
            raise ValueError(
                "slow_threshold_s must be > 0 when set, got "
                f"{self.slow_threshold_s}"
            )

    def sampled(self, trace_id: str) -> bool:
        """The head decision alone (made before the request runs)."""
        return head_sample(trace_id, self.rate)

    def decide(
        self,
        trace_id: str,
        status: str,
        latency_s: float,
    ) -> Optional[str]:
        """Why this finished request should be kept, or ``None``."""
        if status in self.keep_statuses:
            return "status"
        if self.slow_threshold_s is not None \
                and latency_s >= self.slow_threshold_s:
            return "slow"
        if self.sampled(trace_id):
            return "sampled"
        return None


class TraceBuffer:
    """Bounded ring of the most recently kept trace records."""

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError(
                f"capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self.kept = 0
        self.dropped = 0
        self._records: Deque[Dict[str, Any]] = deque()
        self._lock = threading.Lock()

    def append(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self._records.append(record)
            self.kept += 1
            if len(self._records) > self.capacity:
                self._records.popleft()
                self.dropped += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def records(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._records)


class TraceSink:
    """Rotating JSONL persistence for assembled trace records.

    Writes one JSON object per line to ``path``; when the active
    segment would exceed ``max_bytes`` it rotates to ``path.1`` (older
    segments shifting to ``.2`` … ``.max_segments``, the oldest
    deleted).  Rotation is rename-based, so a reader never sees a
    torn segment.
    """

    def __init__(
        self,
        path: str,
        *,
        max_bytes: int = 4 * 1024 * 1024,
        max_segments: int = 4,
    ):
        if max_bytes < 1024:
            raise ValueError(
                f"max_bytes must be >= 1024, got {max_bytes}"
            )
        if max_segments < 1:
            raise ValueError(
                f"max_segments must be >= 1, got {max_segments}"
            )
        self.path = str(path)
        self.max_bytes = max_bytes
        self.max_segments = max_segments
        self.written = 0
        self.rotations = 0
        self._lock = threading.Lock()
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")

    def write(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            if self._handle.closed:
                return
            if self._handle.tell() + len(line) + 1 > self.max_bytes \
                    and self._handle.tell() > 0:
                self._rotate()
            self._handle.write(line + "\n")
            self._handle.flush()
            self.written += 1

    def _rotate(self) -> None:
        # caller holds the lock
        self._handle.close()
        oldest = f"{self.path}.{self.max_segments}"
        if os.path.exists(oldest):
            os.remove(oldest)
        for index in range(self.max_segments - 1, 0, -1):
            src = f"{self.path}.{index}"
            if os.path.exists(src):
                os.replace(src, f"{self.path}.{index + 1}")
        os.replace(self.path, f"{self.path}.1")
        self._handle = open(self.path, "a", encoding="utf-8")
        self.rotations += 1

    def segments(self) -> List[str]:
        """Existing segment paths, newest first."""
        out = [self.path]
        for index in range(1, self.max_segments + 1):
            candidate = f"{self.path}.{index}"
            if os.path.exists(candidate):
                out.append(candidate)
        return out

    def read_records(self) -> List[Dict[str, Any]]:
        """Every persisted record, oldest first (test/debug helper)."""
        records: List[Dict[str, Any]] = []
        for segment in reversed(self.segments()):
            if not os.path.exists(segment):
                continue
            with open(segment, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if line:
                        records.append(json.loads(line))
        return records

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()


class TracePipeline:
    """Decide → assemble → buffer → persist, once per finished request.

    The owner (the cluster router, or any caller holding a
    :class:`~repro.observability.tracing.Tracer`) calls :meth:`offer`
    after each response.  ``tracer=None`` signals the request was not
    head-sampled and carries no spans; always-keep reasons still
    persist a skeleton record so errors and slow requests are never
    invisible.
    """

    def __init__(
        self,
        *,
        policy: Optional[SamplingPolicy] = None,
        sink: Optional[TraceSink] = None,
        buffer_capacity: int = 256,
    ):
        self.policy = policy if policy is not None else SamplingPolicy()
        self.sink = sink
        self.buffer = TraceBuffer(buffer_capacity)
        self.offered = 0
        self.skipped = 0
        self.skeletons = 0
        self.assembly_failures = 0

    def offer(
        self,
        *,
        trace_id: str,
        status: str,
        latency_s: float,
        tracer: Optional[Any] = None,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> Optional[Dict[str, Any]]:
        """Offer one finished request; returns the kept record or
        ``None`` when the policy discards it."""
        self.offered += 1
        reason = self.policy.decide(trace_id, status, latency_s)
        if reason is None:
            self.skipped += 1
            return None
        record: Dict[str, Any] = {
            "trace_id": trace_id,
            "status": status,
            "latency_s": latency_s,
            "reason": reason,
            "tree": None,
        }
        if attributes:
            record["attributes"] = dict(attributes)
        if tracer is not None:
            try:
                record["tree"] = tracer.assemble(trace_id)
            except Exception:
                self.assembly_failures += 1
        if record["tree"] is None:
            self.skeletons += 1
        self.buffer.append(record)
        if self.sink is not None:
            self.sink.write(record)
        return record

    def snapshot(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "offered": self.offered,
            "kept": self.buffer.kept,
            "skipped": self.skipped,
            "skeletons": self.skeletons,
            "assembly_failures": self.assembly_failures,
            "buffered": len(self.buffer),
            "buffer_dropped": self.buffer.dropped,
            "rate": self.policy.rate,
            "slow_threshold_s": self.policy.slow_threshold_s,
        }
        if self.sink is not None:
            out["sink"] = {
                "path": self.sink.path,
                "written": self.sink.written,
                "rotations": self.sink.rotations,
            }
        return out

    def close(self) -> None:
        if self.sink is not None:
            self.sink.close()
