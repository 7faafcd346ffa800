"""Executor contract: ordered results across serial/thread."""

from __future__ import annotations

import os
import time

import pytest

from repro.engine.executors import (
    SerialExecutor,
    ShardExecutor,
    ThreadExecutor,
    default_workers,
    get_executor,
)


def square_plus(x, y):
    return x * x + y


def sleep_then_return(delay, value):
    time.sleep(delay)
    return value


class TestGetExecutor:
    def test_names_resolve(self):
        assert isinstance(get_executor("serial"), SerialExecutor)
        assert isinstance(get_executor("thread", 2), ThreadExecutor)

    def test_instance_passes_through(self):
        ex = SerialExecutor()
        assert get_executor(ex) is ex

    def test_names_build_fresh_executors(self):
        # a name never hands back a shared executor (or its pool)
        assert get_executor("thread", 2) is not get_executor("thread", 2)
        assert get_executor("serial") is not get_executor("serial")

    def test_workers_recorded(self):
        assert get_executor("thread", 3).workers == 3

    def test_default_workers_positive(self):
        assert default_workers() >= 1
        assert get_executor("thread").workers >= 1

    def test_unknown_name_raises(self):
        # "process" is no spec: it fails loudly, naming the real ones
        for spec in ("gpu", "process"):
            with pytest.raises(ValueError, match="unknown executor") as err:
                get_executor(spec)
            assert str(err.value).endswith(
                "expected 'serial', 'thread', or a ShardExecutor instance"
            )

    def test_default_workers_prefers_affinity(self, monkeypatch):
        # a cgroup/taskset mask smaller than the machine must win over
        # os.cpu_count() — the surplus workers only contend
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 2, 5}
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert default_workers() == 3

    def test_default_workers_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert default_workers() == 6

    def test_default_workers_never_below_one(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert default_workers() == 1

    def test_abstract_run_raises(self):
        with pytest.raises(NotImplementedError):
            ShardExecutor().run(square_plus, [(1, 2)])


TASKS = [(x, y) for x in range(7) for y in range(3)]
EXPECTED = [x * x + y for x, y in TASKS]


class TestRunContract:
    @pytest.mark.parametrize("spec", ["serial", "thread"])
    def test_results_in_task_order(self, spec):
        ex = get_executor(spec, 2)
        assert ex.run(square_plus, TASKS) == EXPECTED

    @pytest.mark.parametrize("spec", ["serial", "thread"])
    def test_empty_and_singleton(self, spec):
        ex = get_executor(spec, 2)
        assert ex.run(square_plus, []) == []
        assert ex.run(square_plus, [(3, 1)]) == [10]

    @pytest.mark.parametrize("spec", ["serial", "thread"])
    def test_results_in_task_order_when_finishing_out_of_order(self, spec):
        # later tasks finish first on a pool; results still follow tasks
        delays = [(0.05 - 0.01 * k, k) for k in range(5)]
        with get_executor(spec, 3) as ex:
            assert ex.run(sleep_then_return, delays) == list(range(5))

    def test_single_worker_degrades_to_serial_loop(self):
        # workers=1 must not spin up a pool (observable as: still correct)
        assert ThreadExecutor(1).run(square_plus, TASKS) == EXPECTED
