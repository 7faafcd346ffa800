"""The engine="auto" density probe and selector."""

from __future__ import annotations

import pytest
from hypothesis import given

from repro.core.greedy_sc import greedy_sc
from repro.core.instance import Instance
from repro.engine import auto, columnar
from repro.engine.auto import choose_engine, probe_pair_count
from repro.observability import facade

from .conftest import engine_instances, exact_lambda_instance


def brute_force_pairs(instance: Instance) -> int:
    """O(n^2) reference: within-lambda same-label ordered pairs,
    both directions, self-pairs included."""
    total = 0
    for label in instance.labels:
        posts = list(instance.posting(label))
        for a in posts:
            for b in posts:
                if abs(a.value - b.value) <= instance.lam:
                    total += 1
    return total


class TestProbePairCount:
    def test_small_example(self):
        inst = Instance.from_specs(
            [(0.0, "a"), (1.0, "a"), (5.0, "a")], lam=1.0
        )
        # pairs: (0,0),(0,1),(1,0),(1,1),(5,5) -> 5
        assert probe_pair_count(inst) == 5

    @given(engine_instances(max_posts=25))
    def test_property_matches_brute_force(self, inst):
        assert probe_pair_count(inst) == brute_force_pairs(inst)


class TestChooseEngine:
    def test_sparse_instance_selects_python(self):
        inst = Instance.from_specs(
            [(float(i * 10), "a") for i in range(5)], lam=1.0
        )
        assert choose_engine(inst) == "python"

    def test_threshold_flips_choice(self, monkeypatch):
        inst = Instance.from_specs(
            [(0.0, "a"), (0.5, "a"), (1.0, "a")], lam=1.0
        )
        monkeypatch.setattr(auto, "AUTO_PAIR_THRESHOLD", 1)
        assert choose_engine(inst) == "numpy"
        monkeypatch.setattr(auto, "AUTO_PAIR_THRESHOLD", 10**9)
        assert choose_engine(inst) == "python"

    def test_decision_recorded_as_counters(self):
        inst = Instance.from_specs(
            [(0.0, "a"), (1.0, "ab"), (2.0, "b")], lam=1.0
        )
        with facade.session() as bundle:
            engine = choose_engine(inst)
        counters = bundle.registry.counters()
        assert counters[f"engine.auto.{engine}_selected"] == 1
        assert bundle.registry.gauge("engine.auto.probe_pairs").value == \
            probe_pair_count(inst)


class TestGreedyScAutoDefault:
    def test_default_engine_is_auto(self):
        import inspect

        sig = inspect.signature(greedy_sc)
        assert sig.parameters["engine"].default == "auto"

    @given(engine_instances(max_posts=30))
    def test_auto_matches_both_engines(self, inst):
        auto_picks = greedy_sc(inst, engine="auto").uids
        assert auto_picks == greedy_sc(inst, engine="python").uids
        assert auto_picks == greedy_sc(inst, engine="numpy").uids

    def test_probe_and_builder_share_one_snapshot(self, monkeypatch):
        # a cold solve that the probe sends to the numpy builder builds
        # the columnar snapshot once; the builder reuses the probe's
        inst = Instance.from_specs(
            [(float(i) * 0.5, "ab"[i % 2] + "c") for i in range(30)],
            lam=1.0,
        )
        builds = []
        real = columnar.ColumnarInstance

        class Counting(real):
            def __init__(self, instance):
                builds.append(instance)
                super().__init__(instance)

        monkeypatch.setattr(columnar, "ColumnarInstance", Counting)
        monkeypatch.setattr(auto, "AUTO_PAIR_THRESHOLD", 1)
        with facade.session() as bundle:
            solution = greedy_sc(inst)
        assert bundle.registry.counters()["engine.auto.numpy_selected"] == 1
        assert builds == [inst]
        assert solution.uids == greedy_sc(inst, engine="python").uids

    @pytest.mark.parametrize("strategy", ["rescan", "lazy_heap"])
    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_engines_agree_on_exact_lambda_spacing(self, strategy, lam):
        # every window edge is a `<=` tie both builders must include
        inst = exact_lambda_instance(lam=lam, n=30)
        python = greedy_sc(inst, strategy=strategy, engine="python")
        assert greedy_sc(inst, strategy=strategy, engine="numpy").uids \
            == python.uids
        assert greedy_sc(inst, strategy=strategy).uids == python.uids

    def test_unknown_engine_still_raises(self):
        inst = Instance.from_specs([(0.0, "a")], lam=1.0)
        with pytest.raises(ValueError, match="unknown engine"):
            greedy_sc(inst, engine="rust")
