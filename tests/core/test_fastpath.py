"""The vectorised (numpy) set-cover family builder."""

import random

import pytest
from hypothesis import given, settings

from repro.core.fastpath import build_family_encoded, decode_pair
from repro.core.greedy_sc import build_setcover_family, greedy_sc
from repro.core.instance import Instance
from repro.core.post import Post

from ..conftest import small_instances


class TestEncodedFamily:
    def test_matches_python_builder(self):
        instance = Instance.from_specs(
            [(0.0, "ab"), (1.0, "a"), (3.0, "b"), (3.5, "ab")], lam=1.0
        )
        py_family, py_universe = build_setcover_family(instance)
        np_family, np_universe, labels = build_family_encoded(instance)

        def decode_set(encoded_set):
            return {
                decode_pair(code, instance, labels)
                for code in encoded_set
            }

        assert decode_set(np_universe) == py_universe
        for py_set, np_set in zip(py_family, np_family):
            assert decode_set(np_set) == py_set

    def test_empty_label_lists_tolerated(self):
        instance = Instance.from_specs(
            [(0.0, "a")], lam=1.0, labels="ab"
        )
        family, universe, labels = build_family_encoded(instance)
        assert len(universe) == 1
        assert family[0]

    def test_decode_roundtrip(self):
        instance = Instance.from_specs(
            [(0.0, "a"), (1.0, "b")], lam=1.0
        )
        _, universe, labels = build_family_encoded(instance)
        decoded = {
            decode_pair(code, instance, labels) for code in universe
        }
        assert decoded == {(0, "a"), (1, "b")}

    @given(small_instances())
    @settings(deadline=None, max_examples=60)
    def test_families_equivalent_property(self, instance):
        py_family, py_universe = build_setcover_family(instance)
        np_family, np_universe, labels = build_family_encoded(instance)
        assert len(np_universe) == len(py_universe)
        for py_set, np_set in zip(py_family, np_family):
            assert len(py_set) == len(np_set)
            assert {
                decode_pair(code, instance, labels) for code in np_set
            } == py_set


class TestEngineEquivalence:
    def test_unknown_engine_rejected(self, figure2_instance):
        with pytest.raises(ValueError):
            greedy_sc(figure2_instance, engine="fortran")

    @given(small_instances())
    @settings(deadline=None, max_examples=60)
    def test_engines_pick_identically(self, instance):
        python = greedy_sc(instance, strategy="rescan", engine="python")
        vectorised = greedy_sc(instance, strategy="rescan", engine="numpy")
        assert python.uids == vectorised.uids

    @pytest.mark.parametrize("seed", range(5))
    def test_engines_on_float_boundaries(self, seed):
        """The numpy windows must honour the same ulp discipline."""
        rng = random.Random(seed)
        values = [0.0, 0.3, 0.5, 0.8, 0.3 + 0.5, 0.8 - 0.3, 1.1]
        specs = [
            (rng.choice(values), rng.choice(["a", "b", "ab"]))
            for _ in range(10)
        ]
        instance = Instance.from_specs(specs, lam=0.3)
        assert (
            greedy_sc(instance, strategy="rescan", engine="python").uids
            == greedy_sc(instance, strategy="rescan", engine="numpy").uids
        )


def _decoded_family(instance):
    family, universe, labels = build_family_encoded(instance)
    decode = lambda s: {  # noqa: E731
        decode_pair(code, instance, labels) for code in s
    }
    return [decode(s) for s in family], decode(universe)


def _assert_family_parity(instance):
    py_family, py_universe = build_setcover_family(instance)
    np_family, np_universe = _decoded_family(instance)
    assert np_universe == py_universe
    for idx, (py_set, np_set) in enumerate(zip(py_family, np_family)):
        assert np_set == py_set, (
            f"family[{idx}] diverges: numpy-only "
            f"{sorted(np_set - py_set)}, python-only "
            f"{sorted(py_set - np_set)}"
        )


class TestExactLambdaBoundary:
    """Pairs at distance exactly ``lambda`` — the float-equality edge of
    the widened ``searchsorted`` windows.

    ``values ± lam`` computed in float can land off the true boundary,
    which is why the numpy builder widens its search thresholds and then
    re-filters with the exact ``abs`` subtraction.  Each case here places
    posts *exactly* lambda apart (including sums that round, like
    ``0.1 + 0.2``) and asserts the two builders produce identical pair
    sets, not merely identical greedy picks.
    """

    def test_exact_distance_is_included_by_both(self):
        instance = Instance.from_specs(
            [(0.0, "a"), (1.5, "a"), (3.0, "a")], lam=1.5
        )
        py_family, _ = build_setcover_family(instance)
        # the middle post covers all three; the outer two cover two each
        assert len(py_family[1]) == 3
        assert len(py_family[0]) == len(py_family[2]) == 2
        _assert_family_parity(instance)

    def test_rounded_sum_boundary(self):
        # 0.1 + 0.2 = 0.30000000000000004 > 0.3: the pair (0.1+0.2, 0.3+0.3)
        # sits one ulp beyond lam while (0.3, 0.3+0.3) sits exactly on it
        instance = Instance.from_specs(
            [(0.3, "a"), (0.1 + 0.2, "a"), (0.3 + 0.3, "a")], lam=0.3
        )
        _assert_family_parity(instance)

    def test_subtraction_asymmetry(self):
        # 0.8 - 0.5 > 0.3 in floats although 0.5 + 0.3 == 0.8: windows
        # derived from v + lam disagree with the subtraction filter here
        instance = Instance.from_specs(
            [(0.5, "a"), (0.8, "a"), (0.8 - 0.3, "a")], lam=0.3
        )
        py_family, _ = build_setcover_family(instance)
        np_family, _ = _decoded_family(instance)
        # 0.8 - 0.5 > 0.3, so posts 0 and 1 must NOT cover each other
        assert (1, "a") not in py_family[0]
        assert (1, "a") not in np_family[0]
        _assert_family_parity(instance)

    def test_duplicate_values_at_boundary(self):
        instance = Instance.from_specs(
            [(0.0, "a"), (0.0, "ab"), (0.3, "ab"), (0.3, "b"),
             (0.6, "a")],
            lam=0.3,
        )
        _assert_family_parity(instance)

    def test_lambda_zero_only_exact_duplicates_pair(self):
        tiny = 5e-324  # smallest subnormal: adjacent but not equal
        instance = Instance.from_specs(
            [(0.0, "a"), (0.0, "a"), (tiny, "a")], lam=0.0
        )
        py_family, _ = build_setcover_family(instance)
        assert (2, "a") not in py_family[0]
        _assert_family_parity(instance)

    def test_large_magnitude_boundary(self):
        # at 1e15 the spacing between floats exceeds 0.1: v + lam rounds
        base = 1e15
        instance = Instance.from_specs(
            [(base, "a"), (base + 0.1, "a"), (base + 0.25, "a")],
            lam=0.1,
        )
        _assert_family_parity(instance)

    @staticmethod
    def _repeated_value_at_the_boundary():
        # 376.65160000000003 - 300 rounds to 76.65160000000003, above the
        # value 76.6516 two posts share, yet post 3 is exactly lambda from
        # both: a window widened by one index reaches only one of them
        a = frozenset("a")
        return Instance([
            Post(1, 76.6516, a), Post(2, 76.6516, a),
            Post(3, 376.65160000000003, a), Post(4, 576.6516, a),
        ], lam=300.0)

    def test_repeated_value_at_the_rounded_boundary(self):
        instance = self._repeated_value_at_the_boundary()
        py_family, _ = build_setcover_family(instance)
        assert {(1, "a"), (2, "a")} <= py_family[2]
        _assert_family_parity(instance)

    def test_distinct_floats_between_rounded_and_true_boundary(self):
        # three distinct values one ulp apart, all within lambda of post
        # 9, sit between 4.166884097822246 - lam and the true boundary
        a = frozenset("a")
        instance = Instance([
            Post(9, 4.166884097822246, a),
            Post(1, 0.36234328573882985, a),
            Post(2, 0.3623432857388299, a),
            Post(3, 0.36234328573882996, a),
        ], lam=3.804540812083416)
        py_family, _ = build_setcover_family(instance)
        assert py_family[3] == {(1, "a"), (2, "a"), (3, "a"), (9, "a")}
        _assert_family_parity(instance)

    def test_boundary_covers_agree_across_builders(self):
        instance = self._repeated_value_at_the_boundary()
        python = greedy_sc(instance, strategy="rescan", engine="python")
        assert python.uids == (3,)
        assert greedy_sc(
            instance, strategy="rescan", engine="numpy"
        ).uids == python.uids

    @pytest.mark.parametrize("lam", [0.3, 0.1 + 0.2, 0.5, 1e-9])
    def test_grid_of_exact_multiples(self, lam):
        # every adjacent pair exactly lam apart, accumulated by addition
        # so rounding drifts across the grid
        values, v = [], 0.0
        for _ in range(8):
            values.append(v)
            v += lam
        specs = [
            (value, "ab" if k % 2 else "a")
            for k, value in enumerate(values)
        ]
        instance = Instance.from_specs(specs, lam=lam)
        _assert_family_parity(instance)
        assert (
            greedy_sc(instance, strategy="rescan", engine="python").uids
            == greedy_sc(instance, strategy="rescan", engine="numpy").uids
        )
