"""Pluggable task executors: serial / thread.

A deliberately narrow contract: an executor maps a function over a list
of task tuples and returns the results in task order.  That is all the
service's micro-batcher needs (it runs a batch of distinct solves as one
task list).

Pool lifecycle
--------------

``ThreadExecutor`` owns **one lazily-created pool, reused across
``run()`` calls**.  The pool is created on the first ``run()`` that
needs it and lives until :meth:`~ShardExecutor.close` (or the context
manager exit); a closed executor stays usable — the next ``run()``
simply builds a new pool.  Callers that want a warm pool must therefore
hold the executor instance across calls (the service does).

``get_executor`` resolves the user-facing spec:

========== ===========================================================
``serial``  in-process loop; zero overhead, the parity baseline
``thread``  ``ThreadPoolExecutor``; shares memory, helps when the work
            releases the GIL (numpy) or is I/O-bound
========== ===========================================================
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from typing import Callable, List, Optional, Sequence

__all__ = ["ShardExecutor", "SerialExecutor", "ThreadExecutor",
           "get_executor", "default_workers"]


def default_workers() -> int:
    """Workers this process may actually schedule, at least 1.

    ``os.cpu_count()`` reports the machine, not the process: under a
    cgroup CPU limit or an affinity mask (CI containers, ``taskset``) it
    overcounts, and the surplus workers just contend.  The scheduling
    affinity mask is the honest number where the platform exposes it.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


class ShardExecutor:
    """Maps a function over task tuples, preserving task order."""

    name = "abstract"
    workers = 1

    def run(self, fn: Callable, tasks: Sequence[tuple]) -> List:
        raise NotImplementedError

    def close(self) -> None:
        """Release pooled resources.  The executor stays usable: the
        next :meth:`run` lazily builds a fresh pool."""

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialExecutor(ShardExecutor):
    """The in-process baseline every parity test compares against."""

    name = "serial"

    def run(self, fn: Callable, tasks: Sequence[tuple]) -> List:
        return [fn(*task) for task in tasks]


class ThreadExecutor(ShardExecutor):
    """A thread pool: one lazily created pool, reused across ``run()``
    calls, torn down by :meth:`close` — and fail-fast error handling
    (the first failing task cancels every task still queued)."""

    name = "thread"

    def __init__(self, workers: Optional[int] = None):
        self.workers = workers or default_workers()
        self._pool = None
        self._lock = threading.Lock()

    @property
    def alive(self) -> bool:
        """True while a warm pool exists."""
        return self._pool is not None

    def _ensure_pool(self):
        pool = self._pool
        if pool is None:
            with self._lock:
                pool = self._pool
                if pool is None:
                    pool = self._pool = ThreadPoolExecutor(
                        max_workers=self.workers)
        return pool

    def run(self, fn: Callable, tasks: Sequence[tuple]) -> List:
        if len(tasks) <= 1 or self.workers <= 1:
            return [fn(*task) for task in tasks]
        pool = self._ensure_pool()
        futures = [pool.submit(fn, *task) for task in tasks]
        done, pending = wait(futures, return_when=FIRST_EXCEPTION)
        failures = [
            future for future in futures
            if future in done and not future.cancelled()
            and future.exception() is not None
        ]
        if failures:
            # Fail fast: tasks still queued must not run to completion
            # behind a failure nobody will read.  Cancel them, then
            # surface the *first* failure in submission order (raising
            # through result() keeps the original traceback).
            for future in pending:
                future.cancel()
            failures[0].result()
        return [future.result() for future in futures]

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __del__(self):  # pragma: no cover - GC backstop, not the API
        pool = getattr(self, "_pool", None)
        if pool is not None:
            pool.shutdown(wait=False)


def get_executor(
    spec, workers: Optional[int] = None
) -> ShardExecutor:
    """Resolve an executor spec: a name, or an executor instance.

    A name builds a *fresh* executor; hold the instance (and
    :meth:`~ShardExecutor.close` it) to keep a warm pool across solves.
    """
    if isinstance(spec, ShardExecutor):
        return spec
    if spec == "serial":
        return SerialExecutor()
    if spec == "thread":
        return ThreadExecutor(workers)
    raise ValueError(
        f"unknown executor {spec!r}; expected 'serial', 'thread', "
        f"or a ShardExecutor instance"
    )
