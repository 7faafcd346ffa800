"""Continuous profiling: a thread-based wall-clock sampling profiler.

A daemon thread wakes ``hz`` times per second, snapshots every live
thread's stack via ``sys._current_frames()``, and appends folded stacks
to a bounded ring.  Nothing is instrumented and no trace hooks are
installed, so the profiled code pays only the GIL hand-off while the
sampler formats frames — at the default 100 Hz this is well under a
percent on the service workloads (``BENCH_observability.json`` carries
the measured figure).

Exports:

* :meth:`Profiler.collapsed` — folded ``a;b;c count`` lines, the
  flamegraph.pl / speedscope-import format;
* :meth:`Profiler.speedscope` — a ``sampled``-type speedscope JSON
  document (https://www.speedscope.app/file-format-schema.json);
* :meth:`Profiler.capture` / the cluster ``profile`` op — a bounded
  N-second capture from a live worker.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import Counter, deque
from typing import Any, Deque, Dict, List, Optional, Tuple

__all__ = ["Profiler"]

# hard ceilings so a hostile `profile` op payload cannot wedge a worker
MAX_CAPTURE_SECONDS = 30.0
MAX_HZ = 1000


def _format_frame(frame: Any) -> str:
    code = frame.f_code
    return (
        f"{code.co_name} "
        f"({os.path.basename(code.co_filename)}:{frame.f_lineno})"
    )


def _fold_stack(frame: Any, limit: int) -> Tuple[str, ...]:
    stack: List[str] = []
    current = frame
    while current is not None and len(stack) < limit:
        stack.append(_format_frame(current))
        current = current.f_back
    stack.reverse()  # root first, flamegraph convention
    return tuple(stack)


class Profiler:
    """Low-overhead wall-clock sampling profiler.

    ``start()`` spawns a daemon sampler thread; ``stop()`` joins it.
    Samples live in a bounded ring (``max_samples``), with an
    ``overflowed`` counter when old samples fall off — continuous
    profiling keeps the *recent* window, by design.
    """

    def __init__(
        self,
        *,
        hz: int = 100,
        max_samples: int = 20000,
        max_depth: int = 64,
        clock=time.monotonic,
    ):
        if not 1 <= hz <= MAX_HZ:
            raise ValueError(
                f"hz must be in [1, {MAX_HZ}], got {hz}"
            )
        if max_samples < 1:
            raise ValueError(
                f"max_samples must be >= 1, got {max_samples}"
            )
        self.hz = hz
        self.max_samples = max_samples
        self.max_depth = max_depth
        self.clock = clock
        self.sample_count = 0
        self.overflowed = 0
        self.started_at: Optional[float] = None
        self.stopped_at: Optional[float] = None
        self._samples: Deque[Tuple[float, Tuple[str, ...]]] = deque()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self, hz: Optional[int] = None) -> "Profiler":
        if self.running:
            return self
        if hz is not None:
            if not 1 <= hz <= MAX_HZ:
                raise ValueError(
                    f"hz must be in [1, {MAX_HZ}], got {hz}"
                )
            self.hz = hz
        self._stop.clear()
        self.started_at = self.clock()
        self.stopped_at = None
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=2.0)
        self._thread = None
        self.stopped_at = self.clock()

    def __enter__(self) -> "Profiler":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    def _run(self) -> None:
        period = 1.0 / self.hz
        own_id = threading.get_ident()
        while not self._stop.wait(period):
            now = self.clock()
            frames = sys._current_frames()
            with self._lock:
                for thread_id, frame in frames.items():
                    if thread_id == own_id:
                        continue
                    self._samples.append(
                        (now, _fold_stack(frame, self.max_depth))
                    )
                    self.sample_count += 1
                    if len(self._samples) > self.max_samples:
                        self._samples.popleft()
                        self.overflowed += 1

    # -- exports -----------------------------------------------------------

    def _buffered(self) -> List[Tuple[float, Tuple[str, ...]]]:
        with self._lock:
            return list(self._samples)

    def collapsed(self) -> str:
        """Folded-stack text: one ``frame;frame;frame count`` line per
        distinct stack, sorted by descending count."""
        tally: Counter = Counter(
            ";".join(stack)
            for _, stack in self._buffered()
            if stack
        )
        lines = [
            f"{stack} {count}"
            for stack, count in sorted(
                tally.items(), key=lambda item: (-item[1], item[0])
            )
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def speedscope(self, *, name: str = "repro") -> Dict[str, Any]:
        """A ``sampled``-type speedscope document for the buffer."""
        samples = self._buffered()
        frame_index: Dict[str, int] = {}
        frames: List[Dict[str, str]] = []
        profile_samples: List[List[int]] = []
        weights: List[float] = []
        period = 1.0 / self.hz
        for _, stack in samples:
            indexed: List[int] = []
            for entry in stack:
                idx = frame_index.get(entry)
                if idx is None:
                    idx = frame_index[entry] = len(frames)
                    frames.append({"name": entry})
                indexed.append(idx)
            profile_samples.append(indexed)
            weights.append(period)
        start = samples[0][0] if samples else 0.0
        end = samples[-1][0] if samples else 0.0
        return {
            "$schema": (
                "https://www.speedscope.app/file-format-schema.json"
            ),
            "shared": {"frames": frames},
            "profiles": [
                {
                    "type": "sampled",
                    "name": name,
                    "unit": "seconds",
                    "startValue": start,
                    "endValue": end,
                    "samples": profile_samples,
                    "weights": weights,
                }
            ],
            "exporter": "repro.observability.profiling",
        }

    def capture(self, seconds: float, *, hz: Optional[int] = None) -> Dict[str, Any]:
        """Blocking bounded capture (the sync path under the cluster
        ``profile`` op's async wrapper)."""
        seconds = min(float(seconds), MAX_CAPTURE_SECONDS)
        if seconds <= 0:
            raise ValueError(f"seconds must be > 0, got {seconds}")
        self.start(hz)
        try:
            time.sleep(seconds)
        finally:
            self.stop()
        return {
            "seconds": seconds,
            "hz": self.hz,
            "samples": self.sample_count,
            "overflowed": self.overflowed,
            "collapsed": self.collapsed(),
            "speedscope": self.speedscope(),
        }

    def snapshot(self) -> Dict[str, Any]:
        return {
            "running": self.running,
            "hz": self.hz,
            "samples": self.sample_count,
            "buffered": len(self._samples),
            "overflowed": self.overflowed,
            "started_at": self.started_at,
            "stopped_at": self.stopped_at,
        }
