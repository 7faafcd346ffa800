"""Request coalescing and solver micro-batching.

Digest traffic is heavily duplicated: a popular ``(labels, lambda,
algorithm, dimension)`` combination is requested by thousands of sessions
against the same corpus epoch, and solver determinism makes every one of
those runs byte-identical.  Two cooperating pieces exploit that:

* :class:`RequestCoalescer` — single-flight deduplication.  The first
  request for a key becomes the *leader* and actually computes; every
  identical request that arrives while the leader is in flight becomes a
  *follower* and awaits the leader's future.  N concurrent identical
  requests therefore cost exactly one solver run (the
  ``service.coalesced`` counter is the proof the acceptance tests
  assert on).

* :class:`MicroBatcher` — cross-key batching.  *Distinct* keys arriving
  within ``window`` seconds are collected (up to ``max_batch``) and
  dispatched as one task list onto a :mod:`repro.engine` shard executor,
  so a thread executor runs the batch's solves in parallel instead of
  serially waking per request.  The batch window doubles as the
  coalescing window: while the leader sits in a filling batch, identical
  requests keep landing on its future.

Both are asyncio-native: they must be used from a running event loop.
The executor contract is the narrow :class:`~repro.engine.executors
.ShardExecutor` one; the batcher ships live closures (digests close over
matchers and documents), which the ``serial`` and ``thread`` executors
run in-process.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Dict, Hashable, List, \
    Optional, Tuple

from ..engine.executors import ShardExecutor
from ..observability import facade as _obs

__all__ = ["RequestCoalescer", "MicroBatcher"]


def _call_guarded(job: Callable[[], Any]) -> Tuple[bool, Any]:
    """Run one batched job, capturing its exception instead of letting it
    poison the whole executor batch."""
    try:
        return True, job()
    except BaseException as error:  # noqa: BLE001 - refanned per future
        return False, error


class RequestCoalescer:
    """Single-flight execution: concurrent identical keys share one run."""

    def __init__(self) -> None:
        self._inflight: Dict[Hashable, "asyncio.Future"] = {}

    def inflight(self) -> int:
        """Number of keys currently being computed."""
        return len(self._inflight)

    async def submit(
        self,
        key: Hashable,
        compute: Callable[[], Awaitable[Any]],
    ) -> Tuple[Any, bool]:
        """Run ``compute`` for ``key``, or piggyback on an in-flight run.

        Returns ``(result, coalesced)`` — ``coalesced`` is True when this
        call was a follower that never computed anything.  A leader's
        exception propagates to the leader *and* every follower; the key
        is released either way, so the next request retries cleanly.
        """
        existing = self._inflight.get(key)
        if existing is not None:
            _obs.count("service.coalesced")
            # shield: a cancelled follower must not cancel the shared run
            return await asyncio.shield(existing), True
        loop = asyncio.get_running_loop()
        future: "asyncio.Future" = loop.create_future()
        self._inflight[key] = future
        try:
            result = await compute()
        except BaseException as error:
            if not future.cancelled():
                future.set_exception(error)
                # mark retrieved: with zero followers nobody awaits it
                future.exception()
            raise
        else:
            if not future.cancelled():
                future.set_result(result)
            return result, False
        finally:
            self._inflight.pop(key, None)


class MicroBatcher:
    """Collect jobs for ``window`` seconds, then run them as one batch on
    a shard executor.

    Parameters
    ----------
    executor:
        A :class:`~repro.engine.executors.ShardExecutor` (``serial`` or
        ``thread``).
    window:
        Seconds to hold the first job while the batch fills.  ``0``
        flushes on the next event-loop tick — still enough to batch
        requests submitted in the same tick, without adding latency.
    max_batch:
        Flush immediately once this many jobs are pending.
    """

    def __init__(
        self,
        executor: ShardExecutor,
        window: float = 0.0,
        max_batch: int = 8,
    ):
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.executor = executor
        self.window = window
        self.max_batch = max_batch
        self._pending: List[Tuple[Callable[[], Any], "asyncio.Future"]] = []
        self._timer: Optional["asyncio.TimerHandle"] = None
        self.batches = 0
        self.jobs = 0

    async def run(self, job: Callable[[], Any]) -> Any:
        """Schedule ``job`` into the current batch; await its result."""
        loop = asyncio.get_running_loop()
        future: "asyncio.Future" = loop.create_future()
        self._pending.append((job, future))
        self.jobs += 1
        if len(self._pending) >= self.max_batch:
            self._flush(loop)
        elif len(self._pending) == 1:
            if self.window > 0:
                self._timer = loop.call_later(
                    self.window, self._flush, loop
                )
            else:
                loop.call_soon(self._flush, loop)
        return await future

    def _flush(self, loop: "asyncio.AbstractEventLoop") -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        self.batches += 1
        if _obs.enabled():
            _obs.count("service.batches")
            _obs.observe("service.batch_size", len(batch))
        asyncio.ensure_future(self._execute(loop, batch))

    async def _execute(
        self,
        loop: "asyncio.AbstractEventLoop",
        batch: List[Tuple[Callable[[], Any], "asyncio.Future"]],
    ) -> None:
        jobs = [job for job, _ in batch]
        try:
            outcomes = await loop.run_in_executor(
                None,
                self.executor.run,
                _call_guarded,
                [(job,) for job in jobs],
            )
        except BaseException as error:  # executor itself failed
            for _, future in batch:
                if not future.done():
                    future.set_exception(error)
                    future.exception()
            return
        for (_, future), (ok, value) in zip(batch, outcomes):
            if future.done():
                continue
            if ok:
                future.set_result(value)
            else:
                future.set_exception(value)
                future.exception()
