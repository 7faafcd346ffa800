"""Request coalescing and the solve's hop off the event loop.

Digest traffic is heavily duplicated: a popular ``(labels, lambda,
algorithm, dimension)`` combination is requested by thousands of sessions
against the same corpus epoch, and solver determinism makes every one of
those runs byte-identical.  Two pieces sit between a cold request and its
solve:

* :class:`RequestCoalescer` — single-flight deduplication.  The first
  request for a key becomes the *leader* and actually computes; every
  identical request that arrives while the leader is in flight becomes a
  *follower* and awaits the leader's future.  N concurrent identical
  requests therefore cost exactly one solver run (the
  ``service.coalesced`` counter is the proof the acceptance tests
  assert on).

* :class:`MicroBatcher` — the leader's one thread hop.  Its :meth:`run`
  hands the synchronous solve to the event loop's default executor, so
  the loop keeps serving cache hits, view reads and followers while a
  solve is in flight.

Both are asyncio-native: they must be used from a running event loop.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Dict, Hashable, Tuple

from ..observability import facade as _obs

__all__ = ["RequestCoalescer", "MicroBatcher"]


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
    """Run one synchronous job off the event loop.

    It no longer batches.  Scan, Scan+ and GreedySC are pure Python and
    hold the GIL, so a batch never ran two solves in parallel, and a
    client that awaits one digest at a time only ever filled it with one
    job (``docs/performance.md``, "The solve hop").  The name stays
    because ``digestbench/layers.py`` wraps ``MicroBatcher.run`` by name.
    """

    async def run(self, job: Callable[[], Any]) -> Any:
        """Run ``job`` on the loop's default executor and await it; a
        failing job raises to this awaiter only."""
        return await asyncio.get_running_loop().run_in_executor(None, job)
