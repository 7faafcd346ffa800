"""Executor lifecycle: warm pools, clean teardown, fail-fast errors.

The contract under test: the thread executor keeps ONE pool across
``run()`` calls and releases it on ``close()`` — and the executor stays
usable afterwards; the first failing task surfaces its own exception,
cancels the tasks still queued, and leaves the pool alive.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.engine import executors
from repro.engine.executors import SerialExecutor, ThreadExecutor


def worker_pid(_k):
    return os.getpid()


def slow_ident(delay):
    time.sleep(delay)
    return threading.get_ident()


def boom(msg):
    raise ValueError(msg)


def boom_or_sleep(arg):
    if isinstance(arg, str):
        raise ValueError(arg)
    time.sleep(arg)


class TestPoolReuse:
    def test_thread_pool_object_survives_runs(self):
        ex = ThreadExecutor(2)
        assert not ex.alive
        ex.run(worker_pid, [(k,) for k in range(4)])
        assert ex.alive
        first_pool = ex._pool
        ex.run(worker_pid, [(k,) for k in range(4)])
        assert ex._pool is first_pool
        ex.close()
        assert not ex.alive

    def test_executor_usable_after_close(self):
        ex = ThreadExecutor(2)
        assert ex.run(worker_pid, [(k,) for k in range(4)])
        ex.close()
        # close() is a release, not a poison pill
        assert len(ex.run(worker_pid, [(k,) for k in range(4)])) == 4
        ex.close()
        ex.close()  # idempotent

    def test_context_manager_closes(self):
        with ThreadExecutor(2) as ex:
            ex.run(worker_pid, [(k,) for k in range(4)])
            assert ex.alive
        assert not ex.alive

    def test_concurrent_first_runs_build_one_pool(self, monkeypatch):
        # the service's batcher may call run() from several threads at
        # once on a cold executor: exactly one pool may come of it
        built = []
        real = executors.ThreadPoolExecutor

        def counting_pool(*args, **kwargs):
            built.append(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(executors, "ThreadPoolExecutor", counting_pool)
        ex = ThreadExecutor(2)
        callers = 8
        barrier = threading.Barrier(callers)
        results = [None] * callers

        def call(slot):
            barrier.wait()
            results[slot] = ex.run(worker_pid, [(k,) for k in range(4)])

        threads = [threading.Thread(target=call, args=(slot,))
                   for slot in range(callers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ex.close()
        assert len(built) == 1
        assert all(r == [os.getpid()] * 4 for r in results)

    def test_single_task_never_builds_a_pool(self):
        ex = ThreadExecutor(2)
        assert ex.run(worker_pid, [(0,)]) == [os.getpid()]
        assert not ex.alive
        ex.close()


class TestFailFast:
    @pytest.mark.parametrize("executor_cls", [ThreadExecutor])
    def test_original_exception_propagates(self, executor_cls):
        # the worker's own ValueError must surface (never a
        # CancelledError from the fail-fast sweep); which of the two
        # concurrent failures wins is scheduling-dependent
        with executor_cls(2) as ex:
            with pytest.raises(ValueError, match=r"shard \d failed"):
                ex.run(boom, [("shard 0 failed",), ("shard 1 failed",)])

    def test_serial_failure_stops_the_loop(self):
        # the baseline's fail-fast: tasks after the failing one never run
        ran = []

        def task(k):
            ran.append(k)
            if k == 1:
                raise ValueError("task 1 failed")

        with pytest.raises(ValueError, match="task 1 failed"):
            SerialExecutor().run(task, [(0,), (1,), (2,)])
        assert ran == [0, 1]

    def test_failure_cancels_queued_tasks(self):
        # an immediate failure: the queued slow tasks must be cancelled,
        # or the warm pool's next run queues behind all of them
        with ThreadExecutor(2) as ex:
            ex.run(worker_pid, [(k,) for k in range(4)])  # warm the pool
            started = time.perf_counter()
            with pytest.raises(ValueError):
                ex.run(boom_or_sleep, [("fail",)] + [(0.4,)] * 60)
            assert len(ex.run(worker_pid, [(k,) for k in range(4)])) == 4
            elapsed = time.perf_counter() - started
        # 60 sleeps of 0.4 s on 2 threads take 12 s if they all run;
        # cancelled, only the one already running does
        assert elapsed < 10.0

    def test_pool_survives_task_failure(self):
        with ThreadExecutor(2) as ex:
            before = set(ex.run(slow_ident, [(0.02,) for _ in range(8)]))
            pool = ex._pool
            with pytest.raises(ValueError):
                ex.run(boom, [("fail",), ("fail2",)])
            after = set(ex.run(slow_ident, [(0.02,) for _ in range(8)]))
            assert ex._pool is pool
            assert before & after  # same worker threads, not rebuilt
