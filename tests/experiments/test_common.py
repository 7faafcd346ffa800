"""The shared experiment helpers."""

import pytest

from repro.core.coverage import is_cover
from repro.experiments.common import (
    BATCH_ALGORITHMS,
    EFFECTIVENESS_RATE_PER_MIN,
    STREAM_ALGORITHMS,
    batch_sizes,
    make_day_instance,
    make_effectiveness_instance,
    optimum_size,
    stream_sizes,
)
from repro.observability import facade


class TestInstanceFactories:
    def test_effectiveness_instance_shape(self):
        instance = make_effectiveness_instance(
            seed=0, num_labels=2, lam=30.0
        )
        # 12/min over 10 minutes ~ 120 posts
        assert 80 <= len(instance) <= 170
        assert instance.lam == 30.0
        assert len(instance.labels) == 2

    def test_deterministic_under_seed(self):
        one = make_effectiveness_instance(seed=7, num_labels=2, lam=30.0)
        two = make_effectiveness_instance(seed=7, num_labels=2, lam=30.0)
        assert one.posts == two.posts

    def test_seeds_differ(self):
        one = make_effectiveness_instance(seed=1, num_labels=2, lam=30.0)
        two = make_effectiveness_instance(seed=2, num_labels=2, lam=30.0)
        assert one.posts != two.posts

    def test_day_instance_scaled(self):
        instance = make_day_instance(
            seed=0, num_labels=2, lam=600.0, scale=0.004,
            duration=21_600.0,
        )
        assert len(instance) > 50
        assert instance.lam == 600.0


class TestSolverBundles:
    def test_batch_sizes_runs_every_algorithm(self):
        instance = make_effectiveness_instance(
            seed=0, num_labels=2, lam=30.0
        )
        solutions = batch_sizes(instance)
        assert set(solutions) == set(BATCH_ALGORITHMS)
        for name, solution in solutions.items():
            assert is_cover(instance, solution.posts), name

    def test_stream_sizes_runs_requested_algorithms(self):
        instance = make_effectiveness_instance(
            seed=0, num_labels=2, lam=30.0
        )
        results = stream_sizes(instance, tau=15.0)
        assert set(results) == set(STREAM_ALGORITHMS)
        for name, result in results.items():
            assert is_cover(instance, result.to_solution().posts), name

    def test_optimum_lower_bounds_approximations(self):
        instance = make_effectiveness_instance(
            seed=0, num_labels=2, lam=30.0
        )
        optimum = optimum_size(instance)
        for solution in batch_sizes(instance).values():
            assert solution.size >= optimum

    def test_batch_greedy_sc_runs_the_paper_rescan(self):
        # the figure drivers time the authors' implementation (Sec 7.3),
        # not the served lazy heap
        instance = make_effectiveness_instance(
            seed=0, num_labels=2, lam=30.0
        )
        with facade.session() as bundle:
            solution = BATCH_ALGORITHMS["greedy_sc"](instance)
        counters = bundle.registry.counters()
        assert counters["setcover.rescan.rounds"] == solution.size
        assert [name for name in counters
                if name.startswith("setcover.lazy_heap.")] == []

    def test_rate_constant_sane(self):
        assert EFFECTIVENESS_RATE_PER_MIN > 0
