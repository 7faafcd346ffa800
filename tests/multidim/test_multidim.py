"""Multi-dimensional (spatiotemporal) MQDP — the future-work extension."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.brute_force import exact_via_setcover
from repro.core.greedy_sc import greedy_sc
from repro.core.instance import Instance
from repro.core.post import Post
from repro.core.scan import scan
from repro.errors import InvalidInstanceError
from repro.multidim import (
    BoxCoverage,
    MultiInstance,
    MultiPost,
    exact_box,
    greedy_box,
    sweep_box,
)


def _mp(uid, values, labels):
    return MultiPost(uid=uid, values=tuple(values),
                     labels=frozenset(labels))


def _grid_instance(radii=(1.0, 1.0)):
    """A 3x3 grid of single-label posts plus a centre hub."""
    posts = []
    uid = 0
    for x in (0.0, 2.0, 4.0):
        for y in (0.0, 2.0, 4.0):
            posts.append(_mp(uid, (x, y), "a"))
            uid += 1
    return MultiInstance(posts, radii)


class TestModel:
    def test_box_coverage_requires_all_dimensions(self):
        box = BoxCoverage((1.0, 1.0))
        near_time_far_space = _mp(0, (0.0, 0.0), "a"), _mp(
            1, (0.5, 5.0), "a"
        )
        assert not box.within(*near_time_far_space)
        near_both = _mp(0, (0.0, 0.0), "a"), _mp(1, (0.5, 0.5), "a")
        assert box.within(*near_both)

    def test_covers_requires_shared_label(self):
        box = BoxCoverage((1.0, 1.0))
        one = _mp(0, (0.0, 0.0), "a")
        other = _mp(1, (0.0, 0.0), "b")
        assert not box.covers(one, "a", other)
        assert not box.covers(one, "b", other)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInstanceError):
            MultiInstance([_mp(0, (0.0,), "a")], radii=(1.0, 1.0))

    def test_negative_radius_rejected(self):
        with pytest.raises(InvalidInstanceError):
            BoxCoverage((-0.5,))

    def test_nan_radius_rejected(self):
        with pytest.raises(InvalidInstanceError):
            BoxCoverage((float("nan"), 1.0))

    def test_nan_radius_instance_rejected(self):
        # it used to construct, and greedy_box then failed on an
        # "uncoverable" universe
        with pytest.raises(InvalidInstanceError):
            MultiInstance([_mp(0, (0.0, 0.0), "a")],
                          radii=(float("nan"), 1.0))

    def test_infinite_radius_stays_legal(self):
        assert BoxCoverage((float("inf"), 1.0)).radii[0] == float("inf")

    def test_covered_pairs_by_box(self):
        instance = _grid_instance(radii=(2.0, 2.0))
        centre = instance.post(4)  # the (2, 2) post
        pairs = instance.covered_pairs_by(centre)
        # the 2-radius box around the centre reaches the whole 3x3 grid
        assert pairs == {(uid, "a") for uid in range(9)}

    def test_is_cover(self):
        instance = _grid_instance(radii=(2.0, 2.0))
        assert instance.is_cover([instance.post(4)])
        assert not instance.is_cover([instance.post(0)])


class TestSolvers:
    def test_exact_finds_the_hub(self):
        instance = _grid_instance(radii=(2.0, 2.0))
        assert exact_box(instance).size == 1

    def test_corner_radius_needs_more(self):
        instance = _grid_instance(radii=(1.0, 1.0))
        # unit boxes on a 2-spaced grid cover only themselves
        assert exact_box(instance).size == 9

    def test_greedy_box_valid_and_bounded(self):
        instance = _grid_instance(radii=(2.0, 2.0))
        solution = greedy_box(instance)
        assert instance.is_cover(solution.posts)
        assert solution.size >= exact_box(instance).size

    def test_sweep_box_valid(self):
        instance = _grid_instance(radii=(2.0, 2.0))
        solution = sweep_box(instance)
        assert instance.is_cover(solution.posts)

    def test_spatial_dimension_changes_the_answer(self):
        """The motivating case: two posts at the same time but opposite
        coasts must both be selected once geography counts."""
        posts = [
            _mp(0, (100.0, -118.0), {"storm"}),   # Los Angeles
            _mp(1, (100.0, -74.0), {"storm"}),    # New York
        ]
        time_only = MultiInstance(posts, radii=(60.0, 360.0))
        assert exact_box(time_only).size == 1
        spatiotemporal = MultiInstance(posts, radii=(60.0, 5.0))
        assert exact_box(spatiotemporal).size == 2


class TestOneDimensionalReduction:
    """With one dimension the extension must agree with the paper's MQDP
    implementation post for post."""

    def _paired(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        specs = [
            (rng.uniform(0, 20), rng.sample("ab", rng.randint(1, 2)))
            for _ in range(n)
        ]
        lam = rng.choice([0.5, 1.0, 3.0])
        core = Instance(
            [Post(uid=i, value=v, labels=frozenset(ls))
             for i, (v, ls) in enumerate(specs)],
            lam,
        )
        multi = MultiInstance(
            [_mp(i, (v,), ls) for i, (v, ls) in enumerate(specs)],
            radii=(lam,),
        )
        return core, multi

    @pytest.mark.parametrize("seed", range(15))
    def test_exact_sizes_agree(self, seed):
        core, multi = self._paired(seed)
        assert exact_box(multi).size == exact_via_setcover(core).size

    @pytest.mark.parametrize("seed", range(15))
    def test_greedy_box_matches_greedy_sc(self, seed):
        core, multi = self._paired(seed)
        assert greedy_box(multi).uids == greedy_sc(core).uids

    @pytest.mark.parametrize("seed", range(15))
    def test_sweep_box_matches_scan_size(self, seed):
        core, multi = self._paired(seed)
        assert sweep_box(multi).size == scan(core).size


class TestProperties:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(deadline=None, max_examples=40)
    def test_all_solvers_produce_covers(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 10)
        posts = [
            _mp(
                i,
                (rng.uniform(0, 10), rng.uniform(0, 10)),
                rng.sample("ab", rng.randint(1, 2)),
            )
            for i in range(n)
        ]
        radii = (rng.choice([0.5, 2.0, 10.0]),
                 rng.choice([0.5, 2.0, 10.0]))
        instance = MultiInstance(posts, radii)
        exact = exact_box(instance)
        assert instance.is_cover(exact.posts)
        for solver in (greedy_box, sweep_box):
            solution = solver(instance)
            assert instance.is_cover(solution.posts), solver
            assert solution.size >= exact.size


class _ScriptedClock:
    """Deterministic clock: returns the scripted instants in order."""

    def __init__(self, *instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


class TestClockInjection:
    """``clock=`` routes every timestamp through the injected callable —
    the supervisor's pattern, so timing is testable without wall time."""

    @pytest.mark.parametrize(
        "solver", [greedy_box, exact_box, sweep_box]
    )
    def test_elapsed_from_injected_clock(self, solver):
        instance = _grid_instance()
        solution = solver(instance, clock=_ScriptedClock(10.0, 12.5))
        assert solution.elapsed == 2.5

    def test_observability_clock_is_the_default(self):
        from repro.observability import facade

        instance = _grid_instance()
        with facade.session(clock=_ScriptedClock(0.0, 0.75)):
            solution = greedy_box(instance)
        facade.disable()
        assert solution.elapsed == 0.75

    def test_explicit_clock_wins_over_session(self):
        from repro.observability import facade

        instance = _grid_instance()
        with facade.session(clock=_ScriptedClock(0.0, 100.0)):
            solution = sweep_box(
                instance, clock=_ScriptedClock(1.0, 1.5)
            )
        facade.disable()
        assert solution.elapsed == 0.5
