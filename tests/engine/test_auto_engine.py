"""The engine="auto" pair-count estimate and selector."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given

from repro.core.greedy_sc import greedy_sc
from repro.core.instance import Instance
from repro.engine import auto, columnar
from repro.engine.auto import choose_engine, estimate_pair_count
from repro.experiments.common import make_day_instance
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


def exact_pairs(instance: Instance) -> int:
    """The same count as :func:`brute_force_pairs`, per label from two
    ``searchsorted`` calls, for instances too large for O(n^2)."""
    total = 0
    for label in instance.labels:
        values = np.asarray(instance.posting(label).values)
        hi = np.searchsorted(values, values + instance.lam, side="right")
        lo = np.searchsorted(values, values - instance.lam, side="left")
        total += int((hi - lo).sum())
    return total


def posting_sizes(instance: Instance):
    return [len(instance.posting(label)) for label in instance.labels]


class TestEstimatePairCount:
    def test_small_example(self):
        inst = Instance.from_specs(
            [(0.0, "a"), (1.0, "a"), (5.0, "a")], lam=1.0
        )
        # n = 3 over a span of 5: 3 * min(3, 1 + 2 * 1 * 3 / 5) = 6.6;
        # the exact count is 5: (0,0),(0,1),(1,0),(1,1),(5,5)
        assert estimate_pair_count(inst) == 6
        assert brute_force_pairs(inst) == 5

    @given(engine_instances(max_posts=25))
    def test_property_within_the_exact_counts_bounds(self, inst):
        # every post pairs with itself and with at most its whole list
        sizes = posting_sizes(inst)
        assert sum(sizes) <= brute_force_pairs(inst) <= \
            sum(n * n for n in sizes)
        assert sum(sizes) <= estimate_pair_count(inst) <= \
            sum(n * n for n in sizes)

    @given(engine_instances(max_posts=25))
    def test_property_exact_when_every_window_spans_its_label(self, inst):
        wide = inst.with_lam(inst.span())
        assert estimate_pair_count(wide) == brute_force_pairs(wide)

    def test_exact_on_distinct_values_at_lambda_zero(self):
        inst = Instance.from_specs(
            [(float(i), "ab"[i % 2]) for i in range(9)], lam=0.0
        )
        assert estimate_pair_count(inst) == brute_force_pairs(inst) == 9

    def test_zero_span_counts_every_pair(self):
        inst = Instance.from_specs(
            [(3.0, "a"), (3.0, "a"), (3.0, "ab")], lam=0.0
        )
        assert estimate_pair_count(inst) == brute_force_pairs(inst) == 10

    @given(engine_instances(max_posts=25))
    def test_property_monotone_in_lambda(self, inst):
        wider = inst.with_lam(inst.lam * 2 + 1.0)
        assert estimate_pair_count(inst) <= estimate_pair_count(wider)

    def test_builds_no_columnar_snapshot(self, monkeypatch):
        builds = []
        real = columnar.ColumnarInstance

        class Counting(real):
            def __init__(self, instance):
                builds.append(instance)
                super().__init__(instance)

        monkeypatch.setattr(columnar, "ColumnarInstance", Counting)
        inst = Instance.from_specs(
            [(float(i), "ab"[i % 2]) for i in range(40)], lam=3.0
        )
        assert choose_engine(inst) == "python"
        assert builds == []


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
            estimate_pair_count(inst)

    @pytest.mark.parametrize("scale,lam,engine", [
        (0.002, 300.0, "python"),
        (0.002, 1800.0, "python"),
        (0.005, 300.0, "python"),
        (0.005, 1800.0, "numpy"),
        (0.02, 300.0, "numpy"),
        (0.02, 1800.0, "numpy"),
    ])
    def test_fig13_rows_pick_what_the_exact_count_picks(
        self, scale, lam, engine
    ):
        # the builder table of docs/performance.md: 1,443, 3,246 and
        # 13,278 posts of the fig13 day slice
        inst = make_day_instance(
            seed=20140328, num_labels=5, lam=lam, scale=scale,
        )
        exact = exact_pairs(inst)
        assert (exact >= auto.AUTO_PAIR_THRESHOLD) == (engine == "numpy")
        assert choose_engine(inst) == engine
        assert 0.75 * exact <= estimate_pair_count(inst) <= exact


class TestGreedyScAutoDefault:
    def test_default_engine_is_auto(self):
        import inspect

        sig = inspect.signature(greedy_sc)
        assert sig.parameters["engine"].default == "auto"

    @given(engine_instances(max_posts=30))
    def test_auto_matches_both_engines(self, inst):
        auto_picks = greedy_sc(inst, strategy="rescan", engine="auto").uids
        assert auto_picks == greedy_sc(
            inst, strategy="rescan", engine="python").uids
        assert auto_picks == greedy_sc(
            inst, strategy="rescan", engine="numpy").uids

    def test_probe_and_builder_share_one_snapshot(self, monkeypatch):
        # a cold solve that auto sends to the numpy builder builds the
        # columnar snapshot once, in the builder
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
            solution = greedy_sc(inst, strategy="rescan")
        assert bundle.registry.counters()["engine.auto.numpy_selected"] == 1
        assert builds == [inst]
        assert solution.uids == greedy_sc(
            inst, strategy="rescan", engine="python").uids

    @pytest.mark.parametrize("strategy", ["rescan", "lazy_heap"])
    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_engines_agree_on_exact_lambda_spacing(self, strategy, lam):
        # every window edge is a `<=` tie both builders, and the lazy
        # heap's windows, must include
        inst = exact_lambda_instance(lam=lam, n=30)
        python = greedy_sc(inst, strategy="rescan", engine="python")
        if strategy == "rescan":
            assert greedy_sc(inst, strategy=strategy, engine="numpy").uids \
                == python.uids
        assert greedy_sc(inst, strategy=strategy).uids == python.uids

    def test_unknown_engine_still_raises(self):
        inst = Instance.from_specs([(0.0, "a")], lam=1.0)
        with pytest.raises(ValueError, match="unknown engine"):
            greedy_sc(inst, engine="rust")
