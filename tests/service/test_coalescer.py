"""Unit tests for single-flight coalescing and the solve's thread hop."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.service import MicroBatcher, RequestCoalescer

from .conftest import run


def test_lone_submit_computes():
    async def main():
        coalescer = RequestCoalescer()

        async def compute():
            return 42

        result, coalesced = await coalescer.submit("k", compute)
        assert (result, coalesced) == (42, False)
        assert coalescer.inflight() == 0

    run(main())


def test_concurrent_identical_keys_share_one_run():
    async def main():
        coalescer = RequestCoalescer()
        gate = asyncio.Event()
        calls = []

        async def compute():
            calls.append(1)
            await gate.wait()
            return object()  # identity proves sharing

        async def late_release():
            await asyncio.sleep(0)
            gate.set()

        results = await asyncio.gather(
            *[coalescer.submit("k", compute) for _ in range(6)],
            late_release(),
        )
        outcomes = results[:6]
        assert len(calls) == 1
        leaders = [r for r, c in outcomes if not c]
        followers = [r for r, c in outcomes if c]
        assert len(leaders) == 1 and len(followers) == 5
        assert all(f is leaders[0] for f in followers)

    run(main())


def test_distinct_keys_do_not_coalesce():
    async def main():
        coalescer = RequestCoalescer()

        async def compute_for(key):
            await asyncio.sleep(0)
            return key * 2

        pairs = await asyncio.gather(
            *[
                coalescer.submit(k, lambda k=k: compute_for(k))
                for k in range(4)
            ]
        )
        assert [r for r, _ in pairs] == [0, 2, 4, 6]
        assert not any(c for _, c in pairs)

    run(main())


def test_leader_failure_propagates_and_releases_key():
    async def main():
        coalescer = RequestCoalescer()
        gate = asyncio.Event()

        async def explode():
            await gate.wait()
            raise ValueError("boom")

        async def late_release():
            await asyncio.sleep(0)
            gate.set()

        outcomes = await asyncio.gather(
            coalescer.submit("k", explode),
            coalescer.submit("k", explode),
            late_release(),
            return_exceptions=True,
        )
        assert all(
            isinstance(o, ValueError) for o in outcomes[:2]
        ), outcomes
        # key released: the next submit computes fresh
        async def recover():
            return "fine"

        assert await coalescer.submit("k", recover) == ("fine", False)

    run(main())


def test_sequential_submits_compute_each_time():
    """Coalescing is in-flight-only; memoisation is the cache's job."""

    async def main():
        coalescer = RequestCoalescer()
        calls = []

        async def compute():
            calls.append(1)
            return len(calls)

        first = await coalescer.submit("k", compute)
        second = await coalescer.submit("k", compute)
        assert first == (1, False)
        assert second == (2, False)

    run(main())


def test_batcher_runs_jobs_off_the_loop_thread():
    async def main():
        batcher = MicroBatcher()
        loop_thread = threading.get_ident()
        threads = await asyncio.gather(
            *[batcher.run(threading.get_ident) for _ in range(4)]
        )
        assert all(t != loop_thread for t in threads)

    run(main())


def test_batcher_returns_each_jobs_own_result():
    async def main():
        batcher = MicroBatcher()
        return await asyncio.gather(
            *[batcher.run(lambda i=i: i * i) for i in range(5)]
        )

    assert run(main()) == [0, 1, 4, 9, 16]


def test_batcher_isolates_job_failures():
    async def main():
        batcher = MicroBatcher()

        def ok():
            return "ok"

        def bad():
            raise RuntimeError("this job only")

        outcomes = await asyncio.gather(
            batcher.run(ok), batcher.run(bad), batcher.run(ok),
            return_exceptions=True,
        )
        assert outcomes[0] == "ok" and outcomes[2] == "ok"
        assert isinstance(outcomes[1], RuntimeError)
        assert str(outcomes[1]) == "this job only"
        # the failure left nothing behind: the next job runs normally
        assert await batcher.run(ok) == "ok"

    run(main())


def test_batcher_takes_no_arguments():
    # no executor, window or batch size: one hop per job
    with pytest.raises(TypeError):
        MicroBatcher(window=0.0)
