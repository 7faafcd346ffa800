"""Float-boundary regressions.

Coverage is defined by ``abs(t_i - t_j) <= lambda``; any window computed as
``t_i + lambda >= t_j`` (or bisect bounds derived from it) can disagree with
that at boundary floats — ``0.5 + 0.3 == 0.8`` yet ``0.8 - 0.5 > 0.3``, and
``0.8 - 0.3 == 0.5`` yet ``0.8 - 0.5 > 0.3``.  Widening such a bisect by
one slot per side is not enough either: an edge value may repeat, and
several floats may sit between the rounded ``t_i +- lambda`` and the true
edge.  These tests pin concrete instances where a solver produced a
non-cover, a non-optimal or non-reference answer, or the verifier a false
negative, before every within-lambda lookup went through the one exact
:func:`repro.core.instance.window`.
"""

import random

import pytest

from repro.core.brute_force import brute_force, exact_via_setcover
from repro.core.coverage import covered_pairs_by, is_cover, \
    uncovered_pairs
from repro.core.greedy_sc import greedy_sc
from repro.core.instance import Instance
from repro.core.opt import opt
from repro.core.post import Post
from repro.core.scan import scan, scan_plus
from repro.core.streaming import stream_solve

TRICKY_VALUES = [0.0, 0.3, 0.5, 0.8, 1.0, 0.3 + 0.5, 0.1 + 0.2,
                 0.8 - 0.3, 0.8 - 0.5, 1.1]

STREAMING = ("stream_scan", "stream_scan+", "instant",
             "stream_greedy_sc", "stream_greedy_sc+")


def _instance(spec, lam):
    posts = [
        Post(uid=uid, value=value, labels=frozenset(labels))
        for uid, value, labels in spec
    ]
    return Instance(posts, lam)


class TestPinnedRegressions:
    def test_stream_scan_deadline_tie(self):
        """t_ou + lam == arrival in floats although the true gap exceeds
        lambda: the arrival must not join the pending window."""
        instance = _instance(
            [(0, 0.5, "a"), (2, 0.5, "a"), (1, 0.8, "a")], lam=0.3
        )
        result = stream_solve("stream_scan", instance, tau=0.3)
        assert is_cover(instance, result.to_solution().posts)

    def test_verifier_no_false_negative_at_boundary(self):
        """0.8 - 0.3 == 0.5 <= lam, but the bisect prefilter bound
        0.8 - 0.5 rounds above 0.3 — the verifier must still see the
        coverer."""
        instance = _instance([(0, 0.3, "a"), (1, 0.8, "a")], lam=0.5)
        selected = [instance.post(0)]
        assert uncovered_pairs(instance, selected) == []

    def test_scan_plus_boundary_marking(self):
        instance = _instance(
            [(0, 0.3, "a"), (3, 0.3, "ab"), (2, 0.3 + 1e-16, "b"),
             (1, 0.8, "a")],
            lam=0.5,
        )
        assert is_cover(instance, scan_plus(instance).posts)

    def test_instant_cover_boundary(self):
        instance = _instance(
            [(2, 0.3, "ab"), (3, 0.30000000000000004, "ab"),
             (1, 0.5, "ab"), (0, 0.8, "a")],
            lam=0.5,
        )
        result = stream_solve("instant", instance, tau=0.3)
        assert is_cover(instance, result.to_solution().posts)

    def test_scan_plus_strikes_every_post_within_lambda(self):
        """Posts 7, 9 and 10 of label c lie within 300 of post 5, above
        the rounded 149.223566541692 + 300.  A strike from that edge
        widened by one slot reached only post 7, and Scan+ picked post
        10 as well."""
        instance = Instance.from_specs([
            (-150.77643345830802, "a"), (-150.77643345830796, "b"),
            (449.223566541692, "bc"), (449.2235665416919, "b"),
            (449.22356654169204, "a"), (149.223566541692, "abc"),
            (449.2235665416919, "c"), (449.22356654169204, "abc"),
            (149.22356654169195, "b"), (449.22356654169204, "ac"),
            (449.22356654169204, "ac"),
        ], lam=300.0)
        solution = scan_plus(instance)
        assert solution.uids == (5,)
        assert is_cover(instance, solution.posts)

    def test_covered_pairs_at_a_repeated_edge_value(self):
        """376.65160000000003 - 76.6516 == 300.0: post 3 covers both
        posts at 76.6516, not only the one the widened bisect reached."""
        instance = _instance([
            (1, 76.6516, "a"), (2, 76.6516, "a"),
            (3, 376.65160000000003, "a"), (4, 576.6516, "a"),
        ], lam=300.0)
        assert covered_pairs_by(instance, instance.post(3)) == {
            (1, "a"), (2, "a"), (3, "a"), (4, "a"),
        }

    def test_opt_is_optimal_at_a_repeated_edge_value(self):
        """Posts 1 and 4 share a value; the widened bisect offered only
        one of them to the DP's windows, and OPT returned 3 posts."""
        instance = _instance([
            (0, -494.62755948918726, "ac"), (3, -494.6275594891872, "c"),
            (1, -194.62755948918723, "ab"), (4, -194.62755948918723, "ac"),
            (2, 105.37244051081272, "ac"),
        ], lam=300.0)
        for solver in (opt, brute_force, exact_via_setcover):
            assert set(solver(instance).uids) == {1, 4}, solver

    def test_opt_frontier_survives_old_new_boundary(self):
        """f(j) computed additively can strand a post between 'old' and
        'introducible'; the DP must not dead-end."""
        instance = _instance(
            [(0, 0.5, "a"), (1, 0.8, "a"), (2, 1.1, "a")], lam=0.3
        )
        solution = opt(instance)
        assert is_cover(instance, solution.posts)
        assert solution.size == exact_via_setcover(instance).size


class TestAdversarialSweep:
    """Randomised sweep over the tricky float values: every solver must
    return a verifier-valid cover and the exact solvers must agree."""

    @pytest.mark.parametrize("seed", range(6))
    def test_all_solvers_consistent(self, seed):
        rng = random.Random(seed)
        for _ in range(250):
            n = rng.randint(1, 4)
            posts = [
                Post(
                    uid=i,
                    value=rng.choice(TRICKY_VALUES),
                    labels=frozenset(rng.sample("ab", rng.randint(1, 2))),
                )
                for i in range(n)
            ]
            lam = rng.choice([0.0, 0.3, 0.5, 0.1 + 0.2])
            tau = rng.choice([0.0, 0.3, 0.5])
            instance = Instance(posts, lam)
            exact_sizes = set()
            for solver in (opt, exact_via_setcover, brute_force):
                solution = solver(instance)
                assert is_cover(instance, solution.posts), solver
                exact_sizes.add(solution.size)
            assert len(exact_sizes) == 1
            for solver in (scan, scan_plus, greedy_sc):
                solution = solver(instance)
                assert is_cover(instance, solution.posts), solver
                assert solution.size >= max(exact_sizes)
            for name in STREAMING:
                result = stream_solve(name, instance, tau=tau)
                assert is_cover(
                    instance, result.to_solution().posts
                ), name
